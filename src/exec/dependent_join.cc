#include "exec/dependent_join.h"

#include <algorithm>
#include <unordered_set>

#include "datalog/builtins.h"

namespace planorder::exec {

using datalog::Atom;
using datalog::Term;

int64_t ExecutionTrace::TotalCalls() const {
  int64_t total = 0;
  for (const AtomAccess& a : atoms) total += a.calls;
  return total;
}

int64_t ExecutionTrace::TotalTuplesShipped() const {
  int64_t total = 0;
  for (const AtomAccess& a : atoms) total += a.tuples_shipped;
  return total;
}

double ExecutionTrace::ModeledCost(
    double access_overhead, const std::vector<double>& alpha_per_atom) const {
  double cost = 0.0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    const double alpha = i < alpha_per_atom.size() ? alpha_per_atom[i] : 0.0;
    cost += double(atoms[i].calls) * access_overhead +
            double(atoms[i].tuples_shipped) * alpha;
  }
  return cost;
}

namespace {

/// One plain FetchBatch call per batch against the registry's sources.
class RegistryFetcher : public BatchFetcher {
 public:
  explicit RegistryFetcher(SourceRegistry& sources) : sources_(sources) {}

  const AccessibleSource* Find(const std::string& predicate) const override {
    return sources_.Find(predicate);
  }

  StatusOr<std::vector<std::vector<Term>>> Fetch(const std::string& predicate,
                                                 const BindingBatch& batch,
                                                 int64_t* calls) override {
    *calls = 1;
    return sources_.Find(predicate)->FetchBatch(batch);
  }

 private:
  SourceRegistry& sources_;
};

/// A partial binding: one value per slot, pointing into a fetched row or a
/// constant of the rewriting. Slots not bound yet hold nullptr.
using Partial = const Term* const*;

/// A term of a comparison or of the head, read against a partial binding.
struct Operand {
  const Term* term;
  /// The variable's slot, or -1 for a constant or a function term.
  int slot = -1;
};

/// One test a fetched row must pass at a position of a relational atom:
/// equality with a constant of the rewriting (kConstant), with a slot the
/// prefix bound (kSlot), or with the row's own value at an earlier position
/// where a variable first bound by this atom occurred (kPosition).
struct RowTest {
  enum class Kind { kConstant, kSlot, kPosition };
  Kind kind;
  int pos;
  /// The slot (kSlot) or the earlier position (kPosition).
  int from = -1;
  const Term* constant = nullptr;
};

/// A slot first bound at `pos` of a relational atom.
struct SlotWrite {
  int pos;
  int slot;
};

/// A body atom compiled against the slots bound before it. The bound
/// positions are the constants and the prefix-bound variables, the same for
/// every partial, so they are fixed here.
struct CompiledAtom {
  const Atom* atom;
  bool comparison;
  // Relational atoms. The kConstant and kSlot tests are the bound
  // positions, in position order.
  std::vector<int> bound_positions;
  std::vector<RowTest> tests;
  std::vector<SlotWrite> writes;
  // Comparisons: both arguments, and whether one reads a variable the
  // prefix has not bound.
  std::vector<Operand> operands;
  bool unbound = false;
};

/// The rewriting compiled once per call: every variable of a relational atom
/// gets a dense slot, in first-occurrence order, and every atom position
/// becomes a constant, a read of a bound slot, a write of a slot first bound
/// there, or an equality check for a variable repeated inside the atom.
struct SlotProgram {
  std::vector<const std::string*> slot_names;
  std::vector<CompiledAtom> atoms;
  std::vector<Operand> head;
  /// False when a head variable has no slot (only for an unsafe rewriting).
  bool head_bound = true;

  int SlotOf(const std::string& name) const {
    for (size_t s = 0; s < slot_names.size(); ++s) {
      if (*slot_names[s] == name) return static_cast<int>(s);
    }
    return -1;
  }

  /// True when every variable in `term` has a slot below `bound`.
  bool Bound(const Term& term, size_t bound) const {
    if (term.is_variable()) {
      const int slot = SlotOf(term.name());
      return slot >= 0 && static_cast<size_t>(slot) < bound;
    }
    for (const Term& arg : term.args()) {
      if (!Bound(arg, bound)) return false;
    }
    return true;
  }

  Operand MakeOperand(const Term& term) const {
    return {&term, term.is_variable() ? SlotOf(term.name()) : -1};
  }

  /// `term` with every variable replaced by its value in `partial`; every
  /// variable must be bound.
  Term Resolve(const Term& term, Partial partial) const {
    if (term.is_variable()) return *partial[SlotOf(term.name())];
    if (!term.is_function()) return term;
    std::vector<Term> args;
    args.reserve(term.args().size());
    for (const Term& arg : term.args()) args.push_back(Resolve(arg, partial));
    return Term::Function(term.name(), std::move(args));
  }

  Term Value(const Operand& operand, Partial partial) const {
    if (operand.slot >= 0) return *partial[operand.slot];
    return Resolve(*operand.term, partial);
  }
};

SlotProgram Compile(const datalog::ConjunctiveQuery& rewriting) {
  SlotProgram program;
  for (const Atom& atom : rewriting.body) {
    CompiledAtom compiled;
    compiled.atom = &atom;
    compiled.comparison = datalog::IsComparisonAtom(atom);
    const size_t bound_before = program.slot_names.size();
    if (compiled.comparison) {
      for (const Term& arg : atom.args) {
        compiled.operands.push_back(program.MakeOperand(arg));
        if (!program.Bound(arg, bound_before)) compiled.unbound = true;
      }
      program.atoms.push_back(std::move(compiled));
      continue;
    }
    for (size_t p = 0; p < atom.args.size(); ++p) {
      const int pos = static_cast<int>(p);
      const Term& arg = atom.args[p];
      if (!arg.is_variable()) {  // a constant: function terms are rejected
        compiled.bound_positions.push_back(pos);
        compiled.tests.push_back({RowTest::Kind::kConstant, pos, -1, &arg});
        continue;
      }
      const int slot = program.SlotOf(arg.name());
      if (slot >= 0 && static_cast<size_t>(slot) < bound_before) {
        compiled.bound_positions.push_back(pos);
        compiled.tests.push_back({RowTest::Kind::kSlot, pos, slot});
      } else if (slot >= 0) {
        // Repeats a variable this atom binds: equal to its first position.
        int first = 0;
        while (atom.args[static_cast<size_t>(first)] != arg) ++first;
        compiled.tests.push_back({RowTest::Kind::kPosition, pos, first});
      } else {
        compiled.writes.push_back(
            {pos, static_cast<int>(program.slot_names.size())});
        program.slot_names.push_back(&arg.name());
      }
    }
    program.atoms.push_back(std::move(compiled));
  }
  for (const Term& arg : rewriting.head.args) {
    program.head.push_back(program.MakeOperand(arg));
    if (!program.Bound(arg, program.slot_names.size())) {
      program.head_bound = false;
    }
  }
  return program;
}

bool Passes(const std::vector<RowTest>& tests, Partial partial,
            const std::vector<Term>& row) {
  for (const RowTest& test : tests) {
    const Term& value = row[static_cast<size_t>(test.pos)];
    switch (test.kind) {
      case RowTest::Kind::kConstant:
        if (value != *test.constant) return false;
        break;
      case RowTest::Kind::kSlot:
        if (value != *partial[test.from]) return false;
        break;
      case RowTest::Kind::kPosition:
        if (value != row[static_cast<size_t>(test.from)]) return false;
        break;
    }
  }
  return true;
}

}  // namespace

StatusOr<std::vector<std::vector<Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, SourceRegistry& sources,
    ExecutionTrace* trace) {
  RegistryFetcher fetcher(sources);
  return ExecutePlanDependent(rewriting, fetcher, trace);
}

StatusOr<std::vector<std::vector<Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, BatchFetcher& sources,
    ExecutionTrace* trace) {
  PLANORDER_RETURN_IF_ERROR(rewriting.ValidateSafety());
  for (const Atom& atom : rewriting.body) {
    if (datalog::IsComparisonAtom(atom)) continue;
    const AccessibleSource* source = sources.Find(atom.predicate);
    if (source == nullptr) {
      return NotFoundError("no source registered for '" + atom.predicate +
                           "'");
    }
    if (source->arity() != atom.arity()) {
      return InvalidArgumentError("arity mismatch for '" + atom.predicate +
                                  "'");
    }
    for (const Term& arg : atom.args) {
      if (arg.is_function()) {
        return InvalidArgumentError(
            "function terms cannot be executed against sources");
      }
    }
  }
  if (trace != nullptr) trace->atoms.clear();

  const SlotProgram program = Compile(rewriting);
  const size_t width = program.slot_names.size();
  // Partial bindings flowing left to right: `count` partials of `width`
  // slots each, laid out flat. The count is explicit because a fully ground
  // rewriting has width 0. The fetched rows the partials point into live
  // until the call returns.
  std::vector<const Term*> frontier(width, nullptr);
  size_t count = 1;
  std::vector<const Term*> next;
  std::vector<std::vector<std::vector<Term>>> fetched;
  fetched.reserve(program.atoms.size());
  for (const CompiledAtom& compiled : program.atoms) {
    const Atom& atom = *compiled.atom;
    if (compiled.comparison) {
      // Filter the frontier locally; no source contact.
      if (compiled.unbound) {
        return InvalidArgumentError(
            "comparison over unbound variables in execution order: " +
            atom.ToString());
      }
      Atom resolved = atom;
      size_t kept = 0;
      for (size_t i = 0; i < count; ++i) {
        Partial partial = frontier.data() + i * width;
        for (size_t a = 0; a < atom.args.size(); ++a) {
          resolved.args[a] = program.Value(compiled.operands[a], partial);
        }
        PLANORDER_ASSIGN_OR_RETURN(bool holds,
                                   datalog::EvaluateComparison(resolved));
        if (!holds) continue;
        if (kept != i) {
          std::copy(partial, partial + width, frontier.begin() + kept * width);
        }
        ++kept;
      }
      count = kept;
      frontier.resize(count * width);
      if (trace != nullptr) {
        AtomAccess filter;
        filter.source = atom.predicate;
        trace->atoms.push_back(std::move(filter));
      }
      if (count == 0) break;
      continue;
    }
    const AccessibleSource& source = *sources.Find(atom.predicate);

    // Collect the distinct binding combinations the frontier sends to the
    // source and ship them as ONE batch — the semi-join of measure (2): h is
    // paid per source call, alpha per tuple of the joined result.
    BindingBatch batch(compiled.bound_positions);
    for (size_t i = 0; i < count; ++i) {
      Partial partial = frontier.data() + i * width;
      std::vector<Term> values;
      values.reserve(compiled.bound_positions.size());
      for (const RowTest& test : compiled.tests) {
        if (test.kind == RowTest::Kind::kConstant) {
          values.push_back(*test.constant);
        } else if (test.kind == RowTest::Kind::kSlot) {
          values.push_back(*partial[test.from]);
        }
      }
      batch.Add(std::move(values));
    }

    AtomAccess access;
    access.source = atom.predicate;
    PLANORDER_RETURN_IF_ERROR(source.ValidateBindings(batch.positions()));
    PLANORDER_ASSIGN_OR_RETURN(
        std::vector<std::vector<Term>> shipped,
        sources.Fetch(atom.predicate, batch, &access.calls));
    const std::vector<std::vector<Term>>& rows =
        fetched.emplace_back(std::move(shipped));
    access.tuples_shipped = static_cast<int64_t>(rows.size());
    if (trace != nullptr) trace->atoms.push_back(std::move(access));

    // Partial-major, row-minor: a row extends a partial only when it
    // passes every test, so a non-matching row copies nothing.
    next.clear();
    size_t next_count = 0;
    for (size_t i = 0; i < count; ++i) {
      Partial partial = frontier.data() + i * width;
      for (const std::vector<Term>& row : rows) {
        if (!Passes(compiled.tests, partial, row)) continue;
        next.insert(next.end(), partial, partial + width);
        const Term** extended = next.data() + next_count * width;
        for (const SlotWrite& w : compiled.writes) {
          extended[w.slot] = &row[static_cast<size_t>(w.pos)];
        }
        ++next_count;
      }
    }
    frontier.swap(next);
    count = next_count;
    if (count == 0) break;
  }

  if (count > 0 && !program.head_bound) {
    return InternalError("unbound head after safe execution");
  }
  // Dedup guard only: answers keep the deterministic frontier order.
  // detlint: order-insensitive(membership-only dedup; never iterated)
  std::unordered_set<std::vector<Term>, datalog::TermVectorHash> seen;
  std::vector<std::vector<Term>> answers;
  for (size_t i = 0; i < count; ++i) {
    Partial partial = frontier.data() + i * width;
    std::vector<Term> head;
    head.reserve(program.head.size());
    for (const Operand& arg : program.head) {
      head.push_back(program.Value(arg, partial));
    }
    if (seen.insert(head).second) answers.push_back(std::move(head));
  }
  // Keep trace length equal to the body even when the frontier drained.
  if (trace != nullptr) {
    while (trace->atoms.size() < rewriting.body.size()) {
      AtomAccess empty;
      empty.source = rewriting.body[trace->atoms.size()].predicate;
      trace->atoms.push_back(std::move(empty));
    }
  }
  return answers;
}

}  // namespace planorder::exec
