#include "corpus/mutate.h"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "util/strings.h"

namespace patchdb::corpus {

namespace {

using Lines = std::vector<std::string>;

/// Insert `extra` into `base` at `pos` (clamped), returning a copy.
Lines insert_at(const Lines& base, std::size_t pos, const Lines& extra) {
  Lines out = base;
  pos = std::min(pos, out.size());
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), extra.begin(),
             extra.end());
  return out;
}

struct BodyPair {
  Lines before;
  Lines after;
  std::string message;
};

// ---------------------------------------------------------------------------
// Security templates, Table V types 1-12. Each returns body-level lines;
// the caller wraps them with make_function (except types 6/7 which also
// edit the signature).
// ---------------------------------------------------------------------------

BodyPair bound_check(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  switch (rng.index(3)) {
    case 0: {
      // Add a length guard before a copy.
      Lines core = {
          "memcpy(" + c.buf + ", " + c.ptr + "->payload, " + c.len + ");",
          c.val + " = (int)" + c.len + ";",
      };
      p.before = core;
      p.after = insert_at(core, 0,
                          {"if (" + c.len + " > sizeof(" + c.buf + "))",
                           "    return -1;"});
      p.message = "fix buffer overflow in " + c.func_name;
      break;
    }
    case 1: {
      // Strengthen a loop condition with an index bound.
      const std::string loop_before = "while (" + c.ptr + "->" + c.field + " > 0) {";
      const std::string loop_after = "while (" + c.ptr + "->" + c.field +
                                     " > 0 && " + c.idx + " < sizeof(" + c.buf +
                                     ")) {";
      Lines body = {
          loop_before,
          "    " + c.buf + "[" + c.idx + "] = (char)" + c.callee1 + "(" + c.ptr + ");",
          "    " + c.idx + "++;",
          "}",
      };
      p.before = body;
      body[0] = loop_after;
      p.after = body;
      p.message = "prevent out-of-bounds write in " + c.func_name;
      break;
    }
    default: {
      // Fix an off-by-one comparison on an array index (CVE-2019-20912
      // shape: `if (x)` -> `if (x && i > 0)`).
      Lines body = {
          "if (" + c.buf + "[" + c.idx + "] & 0x40)",
          "    " + c.idx + "--;",
          c.val + " = " + c.buf + "[" + c.idx + "];",
      };
      p.before = body;
      body[0] = "if (" + c.buf + "[" + c.idx + "] & 0x40 && " + c.idx + " > 0)";
      p.after = body;
      p.message = "fix stack underflow in " + c.func_name;
      break;
    }
  }
  return p;
}

BodyPair null_check(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  Lines core = {
      c.val + " = " + c.ptr + "->" + c.field + ";",
      c.callee1 + "(" + c.ptr + ", " + c.val + ");",
  };
  if (rng.chance(0.5)) {
    p.before = core;
    p.after = insert_at(core, 0,
                        {"if (" + c.ptr + " == NULL)",
                         "    return -1;"});
    p.message = "fix NULL pointer dereference in " + c.func_name;
  } else {
    Lines before = {
        "char *" + c.tmp + "_p = malloc(" + c.len + ");",
        "memset(" + c.tmp + "_p, 0, " + c.len + ");",
    };
    Lines after = {
        "char *" + c.tmp + "_p = malloc(" + c.len + ");",
        "if (!" + c.tmp + "_p)",
        "    return -1;",
        "memset(" + c.tmp + "_p, 0, " + c.len + ");",
    };
    p.before = before;
    p.after = after;
    p.message = "check allocation result in " + c.func_name;
  }
  return p;
}

BodyPair sanity_check(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  Lines core = {
      c.val + " = " + c.callee1 + "(" + c.ptr + ");",
      c.ptr + "->" + c.field + " = " + c.val + ";",
  };
  switch (rng.index(3)) {
    case 0:
      p.before = core;
      p.after = insert_at(core, 1,
                          {"if (" + c.val + " < 0 || " + c.val + " > 4096)",
                           "    return -1;"});
      p.message = "validate " + c.field + " range in " + c.func_name;
      break;
    case 1:
      p.before = core;
      p.after = insert_at(core, 0,
                          {"if (" + c.len + " == 0)",
                           "    return 0;"});
      p.message = "reject zero-length input in " + c.func_name;
      break;
    default: {
      Lines weak = core;
      weak.insert(weak.begin(), "if (" + c.len + " != 0) {");
      weak.push_back("}");
      Lines strong = core;
      strong.insert(strong.begin(),
                    "if (" + c.len + " != 0 && " + c.len + " % 4 == 0) {");
      strong.push_back("}");
      p.before = weak;
      p.after = strong;
      p.message = "tighten input validation in " + c.func_name;
      break;
    }
  }
  return p;
}

BodyPair var_definition(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  if (rng.chance(0.5)) {
    Lines body = {
        "int " + c.tmp + "_n = (int)" + c.ptr + "->" + c.field + ";",
        c.buf + "[" + c.tmp + "_n % sizeof(" + c.buf + ")] = 1;",
    };
    p.before = body;
    body[0] = "unsigned int " + c.tmp + "_n = (unsigned int)" + c.ptr + "->" +
              c.field + ";";
    p.after = body;
    p.message = "use unsigned index to avoid signed overflow in " + c.func_name;
  } else {
    Lines body = {
        "char " + c.tmp + "_name[16];",
        "snprintf(" + c.tmp + "_name, sizeof(" + c.tmp + "_name), \"%d\", " +
            c.val + ");",
    };
    p.before = body;
    body[0] = "char " + c.tmp + "_name[64];";
    p.after = body;
    p.message = "enlarge truncated name buffer in " + c.func_name;
  }
  return p;
}

BodyPair var_value(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  if (rng.chance(0.5)) {
    Lines body = {
        "char " + c.tmp + "_out[32];",
        c.callee1 + "(" + c.ptr + ", " + c.tmp + "_out);",
    };
    p.before = body;
    p.after = insert_at(body, 1,
                        {"memset(" + c.tmp + "_out, 0, sizeof(" + c.tmp +
                         "_out));"});
    p.message = "avoid leaking uninitialized stack memory in " + c.func_name;
  } else {
    Lines body = {
        "int fd;",
        "fd = " + c.callee2 + "(" + c.ptr + ");",
    };
    p.before = body;
    body[0] = "int fd = -1;";
    p.after = body;
    p.message = "initialize descriptor before error paths in " + c.func_name;
  }
  return p;
}

BodyPair func_call(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  switch (rng.index(3)) {
    case 0: {
      Lines body = {
          "strcpy(" + c.buf + ", " + c.ptr + "->name);",
      };
      p.before = body;
      p.after = {"strlcpy(" + c.buf + ", " + c.ptr + "->name, sizeof(" + c.buf +
                 "));"};
      p.message = "replace unsafe strcpy in " + c.func_name;
      break;
    }
    case 1: {
      Lines core = {
          c.ptr + "->" + c.field + " += " + c.val + ";",
          c.callee1 + "(" + c.ptr + ", " + c.idx + ");",
      };
      p.before = core;
      Lines locked = core;
      locked.insert(locked.begin(), "mutex_lock(&" + c.ptr + "->lock);");
      locked.push_back("mutex_unlock(&" + c.ptr + "->lock);");
      p.after = locked;
      p.message = "fix race on " + c.field + " update in " + c.func_name;
      break;
    }
    default: {
      Lines body = {
          "char *" + c.tmp + "_key = " + c.callee2 + "(" + c.ptr + ");",
          c.callee1 + "(" + c.ptr + ", " + c.idx + ");",
      };
      p.before = body;
      p.after = insert_at(body, 2,
                          {"free(" + c.tmp + "_key);",
                           c.tmp + "_key = NULL;"});
      p.message = "release key material after use in " + c.func_name;
      break;
    }
  }
  return p;
}

BodyPair jump_statement(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  if (rng.chance(0.5)) {
    Lines body = {
        c.val + " = " + c.callee1 + "(" + c.ptr + ");",
        c.callee2 + "(" + c.ptr + ");",
    };
    p.before = body;
    p.after = insert_at(body, 1,
                        {"if (" + c.val + " < 0)",
                         "    goto out;"});
    p.after.push_back("out:");
    p.message = "bail out on " + c.callee1 + " failure in " + c.func_name;
  } else {
    Lines body = {
        "for (" + c.idx + " = 0; " + c.idx + " < " + c.len + "; " + c.idx + "++) {",
        "    if (" + c.buf + "[" + c.idx + "] == 0)",
        "        continue;",
        "    " + c.val + " += " + c.buf + "[" + c.idx + "];",
        "}",
    };
    p.before = body;
    Lines after = body;
    after[2] = "        break;";
    p.after = after;
    p.message = "stop scanning at terminator in " + c.func_name;
  }
  return p;
}

BodyPair move_statement(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  const std::string init = c.tmp + " = (int)sizeof(" + c.buf + ");";
  Lines uses = {
      c.callee1 + "(" + c.ptr + ", " + c.tmp + ");",
      c.val + " |= " + c.tmp + ";",
  };
  if (rng.chance(0.5)) {
    // Move initialization before first use (uninitialized-use fix).
    Lines before = uses;
    before.push_back(init);
    Lines after = uses;
    after.insert(after.begin(), init);
    p.before = before;
    p.after = after;
    p.message = "initialize " + c.tmp + " before use in " + c.func_name;
  } else {
    // Move a release after the last use (use-after-free fix).
    Lines before = {
        "free(" + c.ptr + "->scratch);",
        c.callee2 + "(" + c.ptr + ");",
    };
    Lines after = {
        c.callee2 + "(" + c.ptr + ");",
        "free(" + c.ptr + "->scratch);",
    };
    p.before = before;
    p.after = after;
    p.message = "fix use-after-free of scratch in " + c.func_name;
  }
  return p;
}

BodyPair redesign(util::Rng& rng, const FunctionContext& c) {
  // Large rewrite: different structure on both sides.
  BodyPair p;
  p.before = {
      "for (" + c.idx + " = 0; " + c.idx + " < " + c.len + "; " + c.idx + "++) {",
      "    " + c.val + " = " + c.callee1 + "(" + c.ptr + ");",
      "    " + c.buf + "[" + c.idx + "] = (char)" + c.val + ";",
      "    if (" + c.val + " == 0)",
      "        " + c.tmp + "++;",
      "}",
      c.ptr + "->" + c.field + " = " + c.tmp + ";",
  };
  Lines rewritten = {
      "size_t " + c.idx + "_max = " + c.len + " < sizeof(" + c.buf + ") ? " +
          c.len + " : sizeof(" + c.buf + ");",
      "",
      "for (" + c.idx + " = 0; " + c.idx + " < " + c.idx + "_max; " + c.idx + "++) {",
      "    " + c.val + " = " + c.callee1 + "(" + c.ptr + ");",
      "    if (" + c.val + " < 0)",
      "        return -1;",
      "    if (" + c.val + " == 0) {",
      "        " + c.tmp + "++;",
      "        continue;",
      "    }",
      "    " + c.buf + "[" + c.idx + "] = (char)" + c.val + ";",
      "}",
      "if (" + c.tmp + " > (int)" + c.idx + "_max / 2)",
      "    return -1;",
      c.ptr + "->" + c.field + " = " + c.tmp + ";",
  };
  if (rng.chance(0.3)) {
    rewritten.push_back(c.callee2 + "(" + c.ptr + ");");
  }
  p.after = rewritten;
  p.message = "rework " + c.func_name + " input handling";
  return p;
}

BodyPair other_minor(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  if (rng.chance(0.5)) {
    Lines body = {c.val + " = " + c.tmp + " & 0x7f;"};
    p.before = body;
    p.after = {c.val + " = " + c.tmp + " & 0x3f;"};
    p.message = "correct mask width in " + c.func_name;
  } else {
    Lines body = {
        "if (" + c.val + " <= (int)" + c.len + ")",
        "    " + c.callee1 + "(" + c.ptr + ", " + c.val + ");",
    };
    p.before = body;
    Lines after = body;
    after[0] = "if (" + c.val + " < (int)" + c.len + ")";
    p.after = after;
    p.message = "fix boundary comparison in " + c.func_name;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Non-security templates.
// ---------------------------------------------------------------------------

// Non-security commits in real repositories frequently LOOK like
// security fixes — defensive early returns, new validity checks on
// config values, API migrations that swap calls, error-handling paths.
// Each non-security family therefore includes "security-mimicking"
// variants; without them the 60-dim feature space separates the classes
// almost perfectly and the nearest-link hit ratio saturates near 100%,
// instead of the paper's 22-30%.

BodyPair new_feature(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  Lines core = filler_statements(rng, c, 3);
  p.before = core;
  switch (rng.index(3)) {
    case 0: {
      Lines feature = {
          "if (" + c.ptr + "->" + c.field + " & 0x100) {",
          "    " + c.callee2 + "(" + c.ptr + ", " + c.idx + ");",
          "    " + c.val + " |= 2;",
          "}",
      };
      p.after = insert_at(core, core.size(), feature);
      p.message = "add " + c.field + " flag handling to " + c.func_name;
      break;
    }
    case 1: {
      // Feature-gated early return: same shape as a sanity check.
      p.after = insert_at(core, 0,
                          {"if (!" + c.ptr + "->opt_" + c.field + ")",
                           "    return 0;"});
      p.message = "make " + c.field + " support optional in " + c.func_name;
      break;
    }
    default: {
      // New bookkeeping call pair: same shape as lock/unlock fixes.
      Lines traced = core;
      traced.insert(traced.begin(), "trace_enter(" + c.ptr + ");");
      traced.push_back("trace_exit(" + c.ptr + ");");
      p.after = traced;
      p.message = "add tracing hooks to " + c.func_name;
      break;
    }
  }
  return p;
}

BodyPair redesign(util::Rng& rng, const FunctionContext& c);

BodyPair refactor(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  if (rng.chance(0.35)) {
    // Module restructuring: a big rewrite with the exact shape of a
    // Type 11 security redesign. In real GitHub histories large rewrites
    // are overwhelmingly refactors, not fixes — this is what makes the
    // NVD head class (Type 11) a precision trap for globally-trained
    // models ranking wild commits (Table III's pseudo-labeling result).
    p = redesign(rng, c);
    p.message = "restructure " + c.func_name + " for readability";
    return p;
  }
  if (rng.chance(0.5)) {
    Lines body = {
        c.tmp + " = " + c.ptr + "->" + c.field + " * 2;",
        c.callee1 + "(" + c.ptr + ", " + c.tmp + ");",
        c.val + " += " + c.tmp + ";",
    };
    p.before = body;
    const std::string new_name = c.tmp + "_scaled";
    Lines renamed;
    for (const std::string& line : body) {
      renamed.push_back(util::replace_all(line, c.tmp, new_name));
    }
    renamed.insert(renamed.begin(), "int " + new_name + ";");
    p.after = renamed;
    p.message = "rename " + c.tmp + " for clarity in " + c.func_name;
  } else {
    // API migration: swap a call for its successor — Type 8's shape.
    Lines body = {
        c.callee1 + "(" + c.ptr + ", " + c.buf + ");",
        c.val + " = " + c.ptr + "->" + c.field + ";",
    };
    p.before = body;
    Lines after = body;
    after[0] = c.callee1 + "_v2(" + c.ptr + ", " + c.buf + ", sizeof(" + c.buf +
               "));";
    p.after = after;
    p.message = "migrate to " + c.callee1 + "_v2 API";
  }
  return p;
}

BodyPair perf_fix(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  if (rng.chance(0.5)) {
    Lines before = {
        "for (" + c.idx + " = 0; " + c.idx + " < " + c.len + "; " + c.idx + "++)",
        "    " + c.val + " += " + c.callee1 + "(" + c.ptr + ") * " + c.buf + "[" +
            c.idx + "];",
    };
    Lines after = {
        c.tmp + " = " + c.callee1 + "(" + c.ptr + ");",
        "for (" + c.idx + " = 0; " + c.idx + " < " + c.len + "; " + c.idx + "++)",
        "    " + c.val + " += " + c.tmp + " * " + c.buf + "[" + c.idx + "];",
    };
    p.before = before;
    p.after = after;
    p.message = "hoist invariant " + c.callee1 + " call out of loop";
  } else {
    // Fast-path short-circuit: an added if + return, check-shaped.
    Lines body = {
        c.val + " = " + c.callee1 + "(" + c.ptr + ");",
        c.callee2 + "(" + c.ptr + ");",
    };
    p.before = body;
    p.after = insert_at(body, 0,
                        {"if (" + c.ptr + "->" + c.field + " == " + c.tmp + ")",
                         "    return " + c.val + ";"});
    p.message = "skip recomputation when " + c.field + " is unchanged";
  }
  return p;
}

BodyPair logic_bug_fix(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  switch (rng.index(3)) {
    case 0: {
      Lines body = {
          c.val + " = (" + c.tmp + " + 7) / 4;",
      };
      p.before = body;
      p.after = {c.val + " = (" + c.tmp + " + 3) / 4;"};
      p.message = "fix rounding in " + c.func_name;
      break;
    }
    case 1: {
      Lines body = {
          "if (" + c.ptr + "->" + c.field + " == 0)",
          "    " + c.callee1 + "(" + c.ptr + ", 1);",
      };
      p.before = body;
      Lines after = body;
      after[0] = "if (" + c.ptr + "->" + c.field + " != 0)";
      p.after = after;
      p.message = "fix inverted condition in " + c.func_name;
      break;
    }
    default: {
      // Functional guard for a behavioural (not security) bug: skip
      // empty work items. Shape-identical to a sanity check.
      Lines body = {
          c.callee1 + "(" + c.ptr + ", " + c.idx + ");",
          c.val + "++;",
      };
      p.before = body;
      p.after = insert_at(body, 0,
                          {"if (" + c.len + " == 0)",
                           "    return 0;"});
      p.message = "skip empty batches in " + c.func_name;
      break;
    }
  }
  return p;
}

BodyPair style_cleanup(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  Lines body = {
      "if (" + c.val + ")",
      "    " + c.callee1 + "(" + c.ptr + ", 0);",
  };
  p.before = body;
  p.after = {
      "if (" + c.val + ") {",
      "    " + c.callee1 + "(" + c.ptr + ", 0);",
      "}",
  };
  (void)rng;
  p.message = "style: add braces in " + c.func_name;
  return p;
}

BodyPair docs_change(util::Rng& rng, const FunctionContext& c) {
  BodyPair p;
  Lines body = {
      "/* process one " + c.field + " record */",
      c.callee1 + "(" + c.ptr + ", " + c.idx + ");",
  };
  p.before = body;
  Lines after = body;
  after[0] = "/* process one " + c.field + " record; caller holds the lock */";
  p.after = after;
  (void)rng;
  p.message = "clarify locking contract comment";
  return p;
}

BodyPair make_body_pair(util::Rng& rng, const FunctionContext& ctx, PatchType type);

/// Security-shaped non-security change: reuses a security generator
/// verbatim. Every code-change shape also occurs for non-security
/// reasons — robustness guards look like sanity-check fixes, big
/// refactors look like redesigns, type cleanups look like definition
/// fixes, code motion looks like ordering fixes. In the diff (and
/// therefore in every syntactic feature and token) these are
/// indistinguishable from vulnerability fixes; only context separates
/// them, which is the oracle's (i.e. the human experts') job. Their
/// share of the wild pool is what bounds nearest-link candidate
/// precision at the paper's 22-30% instead of 100%.
BodyPair defensive_hardening(util::Rng& rng, const FunctionContext& ctx) {
  if (rng.chance(0.45)) {
    // Bulk hardening sweep: a maintainer adds guards everywhere at once
    // (assert sweeps, annotation sweeps, -D_FORTIFY-driven cleanups).
    // Far MORE checks than any single vulnerability fix — these commits
    // sit beyond the NVD training distribution in the "more checks =
    // more security-ish" direction, which is precisely where a global
    // classifier's confidence extrapolates and the pseudo-labeling
    // baseline drowns (Table III), while nearest link, anchored to real
    // NVD feature positions, skips them.
    BodyPair p;
    Lines body = filler_statements(rng, ctx, 5 + rng.index(4));
    p.before = body;
    Lines hardened;
    const std::array<std::string, 4> guards = {
        "if (" + ctx.ptr + " == NULL)",
        "if (" + ctx.len + " > sizeof(" + ctx.buf + "))",
        "if (" + ctx.val + " < 0 || " + ctx.val + " > 4096)",
        "if (" + ctx.idx + " >= " + ctx.len + ")",
    };
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (i % 2 == 0 && inserted < 3 + rng.index(3)) {
        hardened.push_back(guards[rng.index(guards.size())]);
        hardened.push_back("    return -1;");
        ++inserted;
      }
      hardened.push_back(body[i]);
    }
    p.after = hardened;
    p.message = "hardening sweep: validate all inputs in " + ctx.func_name;
    return p;
  }
  // Plain hardening commits are mostly check-shaped (guards, validation,
  // defensive call swaps); redesign-/move-shaped non-security changes
  // come from the refactor family instead.
  static constexpr PatchType kMimicTypes[] = {
      PatchType::kBoundCheck, PatchType::kNullCheck,  PatchType::kSanityCheck,
      PatchType::kVarValue,   PatchType::kFuncCall,   PatchType::kJumpStatement,
      PatchType::kMoveStatement, PatchType::kRedesign,
  };
  static constexpr double kMimicWeights[] = {
      0.22, 0.18, 0.22, 0.08, 0.18, 0.06, 0.03, 0.03,
  };
  const PatchType mimic = kMimicTypes[rng.weighted(kMimicWeights)];
  BodyPair p = make_body_pair(rng, ctx, mimic);
  p.message = "harden " + ctx.func_name + " against unexpected input";
  return p;
}

BodyPair make_body_pair(util::Rng& rng, const FunctionContext& ctx, PatchType type) {
  switch (type) {
    case PatchType::kBoundCheck: return bound_check(rng, ctx);
    case PatchType::kNullCheck: return null_check(rng, ctx);
    case PatchType::kSanityCheck: return sanity_check(rng, ctx);
    case PatchType::kVarDefinition: return var_definition(rng, ctx);
    case PatchType::kVarValue: return var_value(rng, ctx);
    case PatchType::kFuncDeclaration:
    case PatchType::kFuncParameter: {
      // Body stays identical; the signature change happens in
      // make_mutation. Use filler so the function is non-trivial.
      BodyPair p;
      p.before = filler_statements(rng, ctx, 4);
      p.after = p.before;
      return p;
    }
    case PatchType::kFuncCall: return func_call(rng, ctx);
    case PatchType::kJumpStatement: return jump_statement(rng, ctx);
    case PatchType::kMoveStatement: return move_statement(rng, ctx);
    case PatchType::kRedesign: return redesign(rng, ctx);
    case PatchType::kOther: return other_minor(rng, ctx);
    case PatchType::kNewFeature: return new_feature(rng, ctx);
    case PatchType::kRefactor: return refactor(rng, ctx);
    case PatchType::kPerfFix: return perf_fix(rng, ctx);
    case PatchType::kLogicBugFix: return logic_bug_fix(rng, ctx);
    case PatchType::kStyle: return style_cleanup(rng, ctx);
    case PatchType::kDocs: return docs_change(rng, ctx);
    case PatchType::kDefensive: return defensive_hardening(rng, ctx);
  }
  throw std::invalid_argument("make_mutation: unknown patch type");
}

}  // namespace

MutationResult make_mutation(util::Rng& rng, const FunctionContext& ctx,
                             PatchType type) {
  // Surround the changing core with shared filler so hunks sit inside a
  // realistic function, and reuse one filler sequence on both sides.
  const Lines prefix = filler_statements(rng, ctx, 1 + rng.index(3));
  const Lines suffix = filler_statements(rng, ctx, 1 + rng.index(3));
  BodyPair pair = make_body_pair(rng, ctx, type);

  static const std::string kBlank;
  const std::span<const std::string> gap(&kBlank, 1);
  MutationResult result;
  result.type = type;
  result.before = make_function(ctx, {prefix, gap, pair.before, gap, suffix});
  result.after = make_function(ctx, {prefix, gap, pair.after, gap, suffix});

  // Signature-level types edit the first line of the AFTER version only.
  if (type == PatchType::kFuncDeclaration) {
    result.after[0] =
        util::replace_all(result.after[0], "static int ", "static long ");
    result.message = "change " + ctx.func_name + " return type to long";
  } else if (type == PatchType::kFuncParameter) {
    result.after[0] =
        util::replace_all(result.after[0], ")", ", unsigned flags)");
    result.message = "pass caller flags into " + ctx.func_name;
  } else {
    result.message = pair.message;
  }
  if (result.message.empty()) result.message = "update " + ctx.func_name;
  return result;
}

}  // namespace patchdb::corpus
