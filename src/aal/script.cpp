#include "aal/script.hpp"

#include <mutex>
#include <string_view>
#include <unordered_map>

namespace rbay::aal {

namespace {

/// Process-wide intern table: source text → live chunk.  A key views its
/// chunk's own source, and the chunk's deleter erases the entry before the
/// text is freed.
struct ChunkTable {
  std::mutex mu;
  std::unordered_map<std::string_view, std::weak_ptr<const Chunk>> live;
};

ChunkTable& chunk_table() {
  // Never destroyed: chunks may die during static destruction.
  static auto* const table = new ChunkTable;
  return *table;
}

}  // namespace

util::Result<std::shared_ptr<const Chunk>> Chunk::compile(const std::string& source) {
  auto& table = chunk_table();
  {
    std::lock_guard lock(table.mu);
    auto it = table.live.find(source);
    if (it != table.live.end()) {
      if (auto live = it->second.lock()) return live;
    }
  }
  auto parsed = parse(source);
  if (!parsed.ok()) return util::make_error(parsed.error());
  // Declared before the lock: a chunk that lost a compile race is freed,
  // and so takes the lock in its deleter, only after it is released.
  std::shared_ptr<const Chunk> chunk{new Chunk(source, parsed.take()), &Chunk::release};
  std::lock_guard lock(table.mu);
  auto it = table.live.find(source);
  if (it != table.live.end()) {
    if (auto live = it->second.lock()) return live;
    table.live.erase(it);  // its chunk is dying; the key must view ours
  }
  table.live.emplace(chunk->source(), chunk);
  return chunk;
}

void Chunk::release(const Chunk* chunk) {
  {
    auto& table = chunk_table();
    std::lock_guard lock(table.mu);
    auto it = table.live.find(chunk->source_);
    if (it != table.live.end() && it->first.data() == chunk->source_.data()) {
      table.live.erase(it);
    }
  }
  delete chunk;
}

Script::Script(std::shared_ptr<const Chunk> chunk, SandboxLimits limits)
    : chunk_(std::move(chunk)), interp_(limits), globals_(std::make_shared<Env>()) {
  globals_->stdlib = &shared_stdlib();  // globals start empty
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
  const Value* fn = lookup_global(*globals_, name);
  return fn != nullptr && fn->is_callable();
}

util::Result<std::vector<Value>> Script::call_multi(const std::string& name,
                                                    std::vector<Value> args) {
  const Value* found = lookup_global(*globals_, name);
  if (found == nullptr || !found->is_callable()) {
    return util::make_error("no such function: " + name);
  }
  // A copy: the call may rebind `name`, which would free the binding.
  const Value fn = *found;
  interp_.reset_budget();
  try {
    return interp_.call_value(fn, std::move(args), 0);
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
  const Value* v = lookup_global(*globals_, name);
  return v != nullptr ? *v : Value::nil();
}

void Script::set_global(const std::string& name, Value v) {
  globals_->vars[name] = std::move(v);
}

std::size_t Script::memory_footprint(bool include_chunk) const {
  // Shared chunk (optional) + all global state the chunk created.  Names
  // the stdlib binds are left out, a script's private copy of a module
  // included: the stdlib is shared, and identical between RBAY and any
  // baseline.
  std::size_t total = include_chunk ? chunk_->memory_footprint() : 32;
  const auto& stdlib = shared_stdlib().vars;
  for (const auto& [name, value] : globals_->vars) {
    if (stdlib.count(name) != 0) continue;
    total += 32 + name.size() + value.footprint();
  }
  return total;
}

}  // namespace rbay::aal
