#pragma once

// Script: the host-facing facade of the AAL sandbox.
//
// A script is loaded once (parse + run the top-level chunk, which typically
// builds the AA table and defines handlers) and then invoked many times via
// call().  Globals persist across calls — this is the "persistent state"
// half of the paper's AA-as-Lua-table model.  Every call gets a fresh step
// budget; script errors come back as Result errors, never exceptions.

#include <memory>
#include <string>
#include <vector>

#include "aal/interp.hpp"
#include "aal/parser.hpp"
#include "util/result.hpp"

namespace rbay::aal {

/// Immutable compiled chunk: source text + AST.  Shared between Script
/// instances — many attributes carrying the same admin policy share one
/// Chunk while keeping private runtime state.
class Chunk {
 public:
  /// Compiles `source`, or returns the live chunk already compiled from the
  /// same text anywhere in the process.  Chunks are interned by source
  /// under one mutex and held weakly: a chunk dies with its last script.
  static util::Result<std::shared_ptr<const Chunk>> compile(const std::string& source);

  [[nodiscard]] const Block& ast() const { return ast_; }
  [[nodiscard]] const std::string& source() const { return source_; }

  /// Approximate bytes for the source + AST (counted once per unique
  /// chunk in store-level accounting).
  [[nodiscard]] std::size_t memory_footprint() const {
    return 64 + source_.size() + source_.size() / 2;
  }

 private:
  Chunk(std::string source, Block ast) : source_(std::move(source)), ast_(std::move(ast)) {}

  /// Deleter: drops the chunk's intern entry, then frees it.
  static void release(const Chunk* chunk);

  std::string source_;
  Block ast_;
};

class Script {
 public:
  /// Parses `source` and executes the top-level chunk under `limits`.
  static util::Result<std::shared_ptr<Script>> load(const std::string& source,
                                                    SandboxLimits limits = {});

  /// Instantiates a fresh Script (private globals) over a shared chunk.
  static util::Result<std::shared_ptr<Script>> instantiate(
      std::shared_ptr<const Chunk> chunk, SandboxLimits limits = {});

  ~Script();
  Script(const Script&) = delete;
  Script& operator=(const Script&) = delete;

  /// True if the chunk defined a global function `name` (e.g. "onGet").
  [[nodiscard]] bool has_function(const std::string& name) const;

  /// Calls global function `name` with `args` under a fresh step budget.
  /// Returns the function's first return value (nil if none).
  util::Result<Value> call(const std::string& name, std::vector<Value> args);

  /// Calls and returns all results.
  util::Result<std::vector<Value>> call_multi(const std::string& name, std::vector<Value> args);

  [[nodiscard]] Value global(const std::string& name) const;
  void set_global(const std::string& name, Value v);

  /// Steps consumed by the most recent call (sandbox observability).
  [[nodiscard]] int last_call_steps() const { return interp_.steps_used(); }

  /// print() output captured since the last clear.
  [[nodiscard]] const std::vector<std::string>& output() const { return interp_.output(); }
  void clear_output() { interp_.clear_output(); }

  /// Approximate resident bytes: shared chunk + private global state.
  /// Pass include_chunk=false when the chunk is counted elsewhere (store
  /// interning) — the per-attribute marginal cost plotted in Fig. 8c.
  [[nodiscard]] std::size_t memory_footprint(bool include_chunk = true) const;

  [[nodiscard]] const std::string& source() const { return chunk_->source(); }
  [[nodiscard]] const std::shared_ptr<const Chunk>& chunk() const { return chunk_; }

 private:
  Script(std::shared_ptr<const Chunk> chunk, SandboxLimits limits);

  std::shared_ptr<const Chunk> chunk_;
  Interp interp_;
  EnvPtr globals_;
};

}  // namespace rbay::aal
