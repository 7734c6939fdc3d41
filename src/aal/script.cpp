#include "aal/script.hpp"

namespace rbay::aal {

util::Result<std::shared_ptr<const Chunk>> Chunk::compile(std::string source) {
  auto parsed = parse(source);
  if (!parsed.ok()) return util::make_error(parsed.error());
  return std::shared_ptr<const Chunk>{new Chunk(std::move(source), parsed.take())};
}

Script::Script(std::shared_ptr<const Chunk> chunk, SandboxLimits limits)
    : chunk_(std::move(chunk)), interp_(limits) {
  globals_ = interp_.make_globals();
}

Script::~Script() {
  // The script's functions close over its globals, which hold them:
  // break those cycles, or the whole state outlives the script.
  interp_.release_captured_scopes();
  globals_->vars.clear();
}

util::Result<std::shared_ptr<Script>> Script::instantiate(std::shared_ptr<const Chunk> chunk,
                                                          SandboxLimits limits) {
  RBAY_REQUIRE(chunk != nullptr, "Script::instantiate: chunk required");
  // make_shared needs a public constructor; use explicit new under a
  // shared_ptr instead to keep the constructor private.
  std::shared_ptr<Script> script{new Script(std::move(chunk), limits)};
  try {
    script->interp_.reset_budget();
    script->interp_.run_chunk(script->chunk_->ast(), script->globals_);
  } catch (const RuntimeError& e) {
    return util::make_error("script error at line " + std::to_string(e.line) + ": " + e.message);
  }
  return script;
}

util::Result<std::shared_ptr<Script>> Script::load(const std::string& source,
                                                   SandboxLimits limits) {
  auto chunk = Chunk::compile(source);
  if (!chunk.ok()) return util::make_error(chunk.error());
  return instantiate(chunk.take(), limits);
}

bool Script::has_function(const std::string& name) const {
  auto it = globals_->vars.find(name);
  return it != globals_->vars.end() && it->second.is_callable();
}

util::Result<std::vector<Value>> Script::call_multi(const std::string& name,
                                                    std::vector<Value> args) {
  auto it = globals_->vars.find(name);
  if (it == globals_->vars.end() || !it->second.is_callable()) {
    return util::make_error("no such function: " + name);
  }
  interp_.reset_budget();
  try {
    return interp_.call_value(it->second, std::move(args), 0);
  } catch (const RuntimeError& e) {
    return util::make_error("runtime error in " + name + " (line " + std::to_string(e.line) +
                            "): " + e.message);
  }
}

util::Result<Value> Script::call(const std::string& name, std::vector<Value> args) {
  auto multi = call_multi(name, std::move(args));
  if (!multi.ok()) return util::make_error(multi.error());
  auto& values = multi.value();
  return values.empty() ? Value::nil() : std::move(values[0]);
}

Value Script::global(const std::string& name) const {
  auto it = globals_->vars.find(name);
  return it == globals_->vars.end() ? Value::nil() : it->second;
}

void Script::set_global(const std::string& name, Value v) {
  globals_->vars[name] = std::move(v);
}

std::size_t Script::memory_footprint(bool include_chunk) const {
  // Shared chunk (optional) + all global state the chunk created (stdlib
  // modules excluded: they are shared in spirit, and identical between
  // RBAY and any baseline).
  std::size_t total = include_chunk ? chunk_->memory_footprint() : 32;
  static const char* const kStdlibNames[] = {"type", "tostring", "tonumber", "error",
                                             "assert", "print", "next", "pairs",
                                             "ipairs", "select", "math", "string", "table"};
  for (const auto& [name, value] : globals_->vars) {
    bool is_stdlib = false;
    for (const char* n : kStdlibNames) {
      if (name == n) {
        is_stdlib = true;
        break;
      }
    }
    if (is_stdlib) continue;
    total += 32 + name.size() + value.footprint();
  }
  return total;
}

}  // namespace rbay::aal
