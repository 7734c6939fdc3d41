#pragma once

// AAL tree-walking interpreter with sandbox enforcement.
//
// Enforcement mirrors the paper's modified Lua interpreter (§III.B):
//   * a strict step budget per invocation — exceeding it terminates the
//     handler immediately;
//   * a recursion-depth limit;
//   * no kernel / filesystem / network libraries: the base environment
//     contains only math, string and table manipulation plus a handful of
//     basic functions (type, tostring, tonumber, pairs, ipairs, error).
//   * print() is captured to an in-memory buffer the host can inspect.

#include <memory>
#include <string>
#include <vector>

#include "aal/ast.hpp"
#include "aal/value.hpp"

namespace rbay::aal {

struct SandboxLimits {
  /// Max interpreter steps per invocation (paper: bytecode instruction cap).
  int max_steps = 10'000;
  int max_recursion_depth = 64;
};

class Interp {
 public:
  explicit Interp(SandboxLimits limits) : limits_(limits) {}

  /// Runs a chunk in `env`.  Budget applies to the whole run.
  /// Throws RuntimeError on script errors (including budget exhaustion).
  void run_chunk(const Block& block, const EnvPtr& env);

  /// Calls a callable value with `args`.
  std::vector<Value> call_value(const Value& fn, std::vector<Value> args, int line);

  /// Resets the step budget (host does this before each handler call).
  void reset_budget() { steps_used_ = 0; }
  [[nodiscard]] int steps_used() const { return steps_used_; }
  [[nodiscard]] const SandboxLimits& limits() const { return limits_; }

  /// Output captured from print().
  [[nodiscard]] const std::vector<std::string>& output() const { return output_; }
  void clear_output() { output_.clear(); }
  void capture_print(std::string line) { output_.push_back(std::move(line)); }

  /// Empties every live scope a closure of this interpreter captured, and
  /// their enclosing scopes.  With no collector, a function stored in the
  /// scope it closes over (any global function, a recursive local) keeps
  /// that scope alive forever; the owning Script calls this when it dies.
  void release_captured_scopes();

 private:
  friend class Executor;

  /// Remembers `env` as captured by a new closure.
  void note_capture(const EnvPtr& env);

  void step(int line) {
    if (++steps_used_ > limits_.max_steps) {
      throw RuntimeError{"instruction budget exceeded (" + std::to_string(limits_.max_steps) +
                             " steps); handler terminated",
                         line};
    }
  }

  SandboxLimits limits_;
  int steps_used_ = 0;
  int depth_ = 0;
  std::vector<std::string> output_;
  // Scopes closures captured; dead entries are pruned as the list grows.
  std::vector<std::weak_ptr<Env>> captured_;
  std::size_t prune_at_ = 64;
};

/// The restricted stdlib, built once per process into a scope that no
/// script writes.  Every script's globals fall back to it.
const Env& shared_stdlib();

/// Resolves global `name` of a script whose global scope is `globals`: its
/// own binding first, else the stdlib's.  A stdlib module table (`math`,
/// `string`, ...) is copied into `globals` on its first read, so a script
/// that changes a module changes only its own copy.  nullptr if unbound.
const Value* lookup_global(Env& globals, const std::string& name);

}  // namespace rbay::aal
