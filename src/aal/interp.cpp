#include "aal/interp.hpp"

#include <cmath>

namespace rbay::aal {

namespace {

/// Non-error control-flow signals (internal to the interpreter).
struct BreakSignal {};
struct ReturnSignal {
  std::vector<Value> values;
};

Value first_or_nil(const std::vector<Value>& vs) { return vs.empty() ? Value::nil() : vs[0]; }

bool to_number(const Value& v, double& out) {
  if (v.is_number()) {
    out = v.as_number();
    return true;
  }
  if (v.is_string()) {
    const auto& s = v.as_string();
    char* end = nullptr;
    const double d = std::strtod(s.c_str(), &end);
    if (end != s.c_str() && *end == '\0') {
      out = d;
      return true;
    }
  }
  return false;
}

/// The stdlib binding of `name` for a script whose global scope `globals`
/// has none of its own; a module table is copied into `globals` first.
const Value* stdlib_binding(Env& globals, const std::string& name) {
  if (globals.stdlib == nullptr) return nullptr;
  auto it = globals.stdlib->vars.find(name);
  if (it == globals.stdlib->vars.end()) return nullptr;
  if (!it->second.is_table()) return &it->second;  // natives are shared as they are
  auto copy = std::make_shared<Table>(*it->second.as_table());
  return &globals.vars.emplace(name, Value::table(std::move(copy))).first->second;
}

}  // namespace

/// Statement/expression executor bound to one Interp (budget owner).
class Executor {
 public:
  explicit Executor(Interp& interp) : interp_(interp) {}

  void exec_block(const Block& block, const EnvPtr& env) {
    for (const auto& stat : block.stats) exec_stat(*stat, env);
  }

  std::vector<Value> call(const Value& fn, std::vector<Value> args, int line) {
    if (fn.is_native()) {
      interp_.step(line);
      return (*fn.as_native())(interp_, args);
    }
    if (!fn.is_closure()) {
      throw RuntimeError{std::string("attempt to call a ") + fn.type_name() + " value", line};
    }
    if (++interp_.depth_ > interp_.limits_.max_recursion_depth) {
      --interp_.depth_;
      throw RuntimeError{"recursion depth limit exceeded", line};
    }
    const auto& closure = *fn.as_closure();
    auto frame = std::make_shared<Env>();
    frame->parent = closure.env;
    const auto& params = closure.body->params;
    for (std::size_t i = 0; i < params.size(); ++i) {
      frame->vars[params[i]] = i < args.size() ? std::move(args[i]) : Value::nil();
    }
    std::vector<Value> result;
    try {
      exec_block(closure.body->body, frame);
    } catch (ReturnSignal& ret) {
      result = std::move(ret.values);
    } catch (...) {
      --interp_.depth_;
      throw;
    }
    --interp_.depth_;
    return result;
  }

 private:
  // --- variable resolution ---------------------------------------------

  static Env* find_env_with(const EnvPtr& env, const std::string& name) {
    for (Env* e = env.get(); e != nullptr; e = e->parent.get()) {
      if (e->vars.count(name) != 0) return e;
    }
    return nullptr;
  }

  static Env& global_env(const EnvPtr& env) {
    Env* e = env.get();
    while (e->parent) e = e->parent.get();
    return *e;
  }

  Value read_var(const EnvPtr& env, const std::string& name) {
    Env* e = env.get();
    for (;; e = e->parent.get()) {
      auto it = e->vars.find(name);
      if (it != e->vars.end()) return it->second;
      if (!e->parent) break;
    }
    // Unbound in every scope up to the globals (`e`): try the stdlib.
    const Value* v = stdlib_binding(*e, name);
    return v != nullptr ? *v : Value::nil();
  }

  void write_var(const EnvPtr& env, const std::string& name, Value v) {
    if (Env* e = find_env_with(env, name)) {
      e->vars[name] = std::move(v);
    } else {
      global_env(env).vars[name] = std::move(v);
    }
  }

  // --- statements --------------------------------------------------------

  void exec_stat(const Stat& stat, const EnvPtr& env) {
    interp_.step(stat.line);
    switch (stat.kind) {
      case StatKind::Expr: eval_multi(*stat.exprs[0], env); return;
      case StatKind::Local: {
        auto values = eval_expr_list(stat.exprs, env);
        for (std::size_t i = 0; i < stat.names.size(); ++i) {
          env->vars[stat.names[i]] = i < values.size() ? std::move(values[i]) : Value::nil();
        }
        return;
      }
      case StatKind::Assign: {
        auto values = eval_expr_list(stat.exprs, env);
        for (std::size_t i = 0; i < stat.lhs.size(); ++i) {
          Value v = i < values.size() ? std::move(values[i]) : Value::nil();
          assign_to(*stat.lhs[i], env, std::move(v));
        }
        return;
      }
      case StatKind::If: {
        for (const auto& clause : stat.clauses) {
          if (eval(*clause.cond, env).truthy()) {
            exec_scoped(clause.body, env);
            return;
          }
        }
        if (stat.has_else) exec_scoped(stat.else_body, env);
        return;
      }
      case StatKind::While: {
        try {
          while (eval(*stat.a, env).truthy()) {
            interp_.step(stat.line);
            exec_scoped(stat.body, env);
          }
        } catch (BreakSignal&) {
        }
        return;
      }
      case StatKind::Repeat: {
        try {
          for (;;) {
            interp_.step(stat.line);
            // Lua scoping: the until-condition sees the body's locals.
            auto scope = std::make_shared<Env>();
            scope->parent = env;
            exec_block(stat.body, scope);
            if (eval(*stat.a, scope).truthy()) break;
          }
        } catch (BreakSignal&) {
        }
        return;
      }
      case StatKind::NumericFor: {
        double from = expect_number(eval(*stat.a, env), stat.line, "'for' initial value");
        const double to = expect_number(eval(*stat.b, env), stat.line, "'for' limit");
        const double step =
            stat.c ? expect_number(eval(*stat.c, env), stat.line, "'for' step") : 1.0;
        if (step == 0.0) throw RuntimeError{"'for' step is zero", stat.line};
        try {
          for (double i = from; step > 0 ? i <= to : i >= to; i += step) {
            interp_.step(stat.line);
            auto scope = std::make_shared<Env>();
            scope->parent = env;
            scope->vars[stat.names[0]] = Value::number(i);
            exec_block(stat.body, scope);
          }
        } catch (BreakSignal&) {
        }
        return;
      }
      case StatKind::GenericFor: exec_generic_for(stat, env); return;
      case StatKind::Return: {
        ReturnSignal ret;
        ret.values = eval_expr_list(stat.exprs, env);
        throw ret;
      }
      case StatKind::Break: throw BreakSignal{};
      case StatKind::Do: exec_scoped(stat.body, env); return;
    }
  }

  void exec_scoped(const Block& block, const EnvPtr& env) {
    auto scope = std::make_shared<Env>();
    scope->parent = env;
    exec_block(block, scope);
  }

  // Generic for implements the Lua iterator protocol:
  //   for vars in f, s, ctrl do ... end
  void exec_generic_for(const Stat& stat, const EnvPtr& env) {
    auto iter = eval_expr_list(stat.exprs, env);
    iter.resize(3);
    Value f = iter[0];
    Value s = iter[1];
    Value ctrl = iter[2];
    if (!f.is_callable()) {
      throw RuntimeError{"'for ... in' expects an iterator function", stat.line};
    }
    try {
      for (;;) {
        interp_.step(stat.line);
        auto results = call(f, {s, ctrl}, stat.line);
        results.resize(std::max<std::size_t>(results.size(), stat.names.size()));
        if (results.empty() || results[0].is_nil()) break;
        ctrl = results[0];
        auto scope = std::make_shared<Env>();
        scope->parent = env;
        for (std::size_t i = 0; i < stat.names.size(); ++i) {
          scope->vars[stat.names[i]] = i < results.size() ? results[i] : Value::nil();
        }
        exec_block(stat.body, scope);
      }
    } catch (BreakSignal&) {
    }
  }

  void assign_to(const Expr& target, const EnvPtr& env, Value v) {
    if (target.kind == ExprKind::Name) {
      write_var(env, target.str, std::move(v));
      return;
    }
    // Index target: a[b] = v
    Value container = eval(*target.a, env);
    if (!container.is_table()) {
      throw RuntimeError{std::string("attempt to index a ") + container.type_name() + " value",
                         target.line};
    }
    Value key = eval(*target.b, env);
    container.as_table()->set(to_key(key, target.line), std::move(v));
  }

  // --- expressions ------------------------------------------------------

  static double expect_number(const Value& v, int line, const char* what) {
    double out = 0.0;
    if (!to_number(v, out)) {
      throw RuntimeError{std::string(what) + " must be a number, got " + v.type_name(), line};
    }
    return out;
  }

  /// Evaluates an expression list with Lua multi-value semantics: the last
  /// expression, if a call, expands to all its results.
  std::vector<Value> eval_expr_list(const std::vector<ExprPtr>& exprs, const EnvPtr& env) {
    std::vector<Value> out;
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      if (i + 1 == exprs.size()) {
        auto multi = eval_multi(*exprs[i], env);
        for (auto& v : multi) out.push_back(std::move(v));
      } else {
        out.push_back(eval(*exprs[i], env));
      }
    }
    return out;
  }

  std::vector<Value> eval_multi(const Expr& expr, const EnvPtr& env) {
    if (expr.kind == ExprKind::Call || expr.kind == ExprKind::MethodCall) {
      return eval_call(expr, env);
    }
    std::vector<Value> out;
    out.push_back(eval(expr, env));
    return out;
  }

  std::vector<Value> eval_call(const Expr& expr, const EnvPtr& env) {
    interp_.step(expr.line);
    Value fn;
    std::vector<Value> args;
    if (expr.kind == ExprKind::MethodCall) {
      Value object = eval(*expr.a, env);
      if (!object.is_table()) {
        throw RuntimeError{std::string("attempt to call method on a ") + object.type_name() +
                               " value",
                           expr.line};
      }
      fn = object.as_table()->get(TableKey{expr.str});
      args.push_back(std::move(object));
    } else {
      fn = eval(*expr.a, env);
    }
    for (std::size_t i = 0; i < expr.list.size(); ++i) {
      if (i + 1 == expr.list.size()) {
        auto multi = eval_multi(*expr.list[i], env);
        for (auto& v : multi) args.push_back(std::move(v));
      } else {
        args.push_back(eval(*expr.list[i], env));
      }
    }
    return call(fn, std::move(args), expr.line);
  }

  Value eval(const Expr& expr, const EnvPtr& env) {
    interp_.step(expr.line);
    switch (expr.kind) {
      case ExprKind::Nil: return Value::nil();
      case ExprKind::True: return Value::boolean(true);
      case ExprKind::False: return Value::boolean(false);
      case ExprKind::Number: return Value::number(expr.number);
      case ExprKind::String: return Value::string(expr.str);
      case ExprKind::Name: return read_var(env, expr.str);
      case ExprKind::Index: {
        Value container = eval(*expr.a, env);
        if (container.is_table()) {
          return container.as_table()->get(to_key(eval(*expr.b, env), expr.line));
        }
        throw RuntimeError{std::string("attempt to index a ") + container.type_name() + " value",
                           expr.line};
      }
      case ExprKind::Call:
      case ExprKind::MethodCall: return first_or_nil(eval_call(expr, env));
      case ExprKind::Table: {
        auto table = std::make_shared<Table>();
        double next_index = 1.0;
        for (const auto& field : expr.fields) {
          Value v = eval(*field.value, env);
          if (field.key) {
            table->set(to_key(eval(*field.key, env), expr.line), std::move(v));
          } else {
            table->set(TableKey{next_index}, std::move(v));
            next_index += 1.0;
          }
        }
        return Value::table(std::move(table));
      }
      case ExprKind::Function: {
        auto closure = std::make_shared<Closure>();
        closure->body = expr.func;
        closure->env = env;
        interp_.note_capture(env);
        return Value::closure(std::move(closure));
      }
      case ExprKind::Unary: return eval_unary(expr, env);
      case ExprKind::Binary: return eval_binary(expr, env);
    }
    return Value::nil();
  }

  Value eval_unary(const Expr& expr, const EnvPtr& env) {
    Value operand = eval(*expr.a, env);
    switch (expr.un_op) {
      case UnOp::Not: return Value::boolean(!operand.truthy());
      case UnOp::Negate:
        return Value::number(-expect_number(operand, expr.line, "unary '-' operand"));
      case UnOp::Length:
        if (operand.is_string()) {
          return Value::number(static_cast<double>(operand.as_string().size()));
        }
        if (operand.is_table()) {
          return Value::number(static_cast<double>(operand.as_table()->sequence_length()));
        }
        throw RuntimeError{std::string("attempt to get length of a ") + operand.type_name() +
                               " value",
                           expr.line};
    }
    return Value::nil();
  }

  Value eval_binary(const Expr& expr, const EnvPtr& env) {
    // Short-circuit operators return an operand, as in Lua.
    if (expr.bin_op == BinOp::And) {
      Value a = eval(*expr.a, env);
      return a.truthy() ? eval(*expr.b, env) : a;
    }
    if (expr.bin_op == BinOp::Or) {
      Value a = eval(*expr.a, env);
      return a.truthy() ? a : eval(*expr.b, env);
    }

    Value a = eval(*expr.a, env);
    Value b = eval(*expr.b, env);
    switch (expr.bin_op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::Mul:
      case BinOp::Div:
      case BinOp::Mod:
      case BinOp::Pow: {
        const double x = expect_number(a, expr.line, "arithmetic operand");
        const double y = expect_number(b, expr.line, "arithmetic operand");
        switch (expr.bin_op) {
          case BinOp::Add: return Value::number(x + y);
          case BinOp::Sub: return Value::number(x - y);
          case BinOp::Mul: return Value::number(x * y);
          case BinOp::Div: return Value::number(x / y);
          case BinOp::Mod: return Value::number(x - std::floor(x / y) * y);  // Lua semantics
          default: return Value::number(std::pow(x, y));
        }
      }
      case BinOp::Concat: {
        auto part = [&](const Value& v) -> std::string {
          if (v.is_string()) return v.as_string();
          if (v.is_number()) return number_to_string(v.as_number());
          throw RuntimeError{std::string("attempt to concatenate a ") + v.type_name() + " value",
                             expr.line};
        };
        return Value::string(part(a) + part(b));
      }
      case BinOp::Eq: return Value::boolean(a.equals(b));
      case BinOp::NotEq: return Value::boolean(!a.equals(b));
      case BinOp::Less:
      case BinOp::LessEq:
      case BinOp::Greater:
      case BinOp::GreaterEq: {
        int cmp = 0;
        if (a.is_number() && b.is_number()) {
          cmp = a.as_number() < b.as_number() ? -1 : (a.as_number() > b.as_number() ? 1 : 0);
        } else if (a.is_string() && b.is_string()) {
          cmp = a.as_string().compare(b.as_string());
        } else {
          throw RuntimeError{std::string("attempt to compare ") + a.type_name() + " with " +
                                 b.type_name(),
                             expr.line};
        }
        switch (expr.bin_op) {
          case BinOp::Less: return Value::boolean(cmp < 0);
          case BinOp::LessEq: return Value::boolean(cmp <= 0);
          case BinOp::Greater: return Value::boolean(cmp > 0);
          default: return Value::boolean(cmp >= 0);
        }
      }
      default: return Value::nil();
    }
  }

  Interp& interp_;
};

void Interp::run_chunk(const Block& block, const EnvPtr& env) {
  Executor exec{*this};
  try {
    exec.exec_block(block, env);
  } catch (ReturnSignal&) {
    // top-level return: fine, chunk ends
  } catch (BreakSignal&) {
    throw RuntimeError{"'break' outside a loop", 0};
  }
}

std::vector<Value> Interp::call_value(const Value& fn, std::vector<Value> args, int line) {
  Executor exec{*this};
  return exec.call(fn, std::move(args), line);
}

void Interp::note_capture(const EnvPtr& env) {
  if (captured_.size() >= prune_at_) {
    std::erase_if(captured_, [](const std::weak_ptr<Env>& w) { return w.expired(); });
    prune_at_ = 64 + 2 * captured_.size();
  }
  captured_.push_back(env);
}

void Interp::release_captured_scopes() {
  for (const auto& weak : captured_) {
    for (EnvPtr env = weak.lock(); env != nullptr; env = env->parent) env->vars.clear();
  }
  captured_.clear();
}

const Value* lookup_global(Env& globals, const std::string& name) {
  auto it = globals.vars.find(name);
  return it != globals.vars.end() ? &it->second : stdlib_binding(globals, name);
}

}  // namespace rbay::aal
