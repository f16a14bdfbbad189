//===- Dataflow.cpp -------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Dataflow.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string_view>
#include <unordered_map>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

/// Direction-abstracted view of the CFG: "pred"/"succ" follow the guard's
/// flow direction, and "roots" are the nodes whose IN fact is empty by
/// definition (the entry for forward guards — no path has a ψ1 node
/// before the entry; the exits for backward guards).
struct DirectedView {
  const Cfg &G;
  Direction Dir;

  const std::vector<int> &flowPreds(int I) const {
    return Dir == Direction::D_Forward ? G.preds(I) : G.succs(I);
  }
  const std::vector<int> &flowSuccs(int I) const {
    return Dir == Direction::D_Forward ? G.succs(I) : G.preds(I);
  }
  bool isRoot(int I) const {
    return Dir == Direction::D_Forward ? I == G.entry() : G.isExit(I);
  }

  /// Nodes that participate: reachable along the flow direction from a
  /// root (others have no constraining paths; the engine skips them).
  std::vector<bool> liveNodes() const {
    std::vector<bool> Live(G.size(), false);
    std::vector<int> Work;
    for (int I = 0; I < G.size(); ++I)
      if (isRoot(I)) {
        Live[I] = true;
        Work.push_back(I);
      }
    while (!Work.empty()) {
      int I = Work.back();
      Work.pop_back();
      for (int T : flowSuccs(I))
        if (!Live[T]) {
          Live[T] = true;
          Work.push_back(T);
        }
    }
    return Live;
  }
};

/// Structural hash of a substitution, consistent with its ==: Exprs
/// bindings hash their canonical rendering.
struct SubstitutionHash {
  size_t operator()(const Substitution &S) const {
    size_t H = S.size();
    auto mix = [&H](size_t V) {
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    };
    std::hash<std::string_view> Str;
    for (const auto &[Name, B] : S) {
      mix(Str(Name));
      mix(B.V.index());
      if (B.isConst())
        mix(static_cast<size_t>(B.asConst()));
      else if (B.isIndex())
        mix(static_cast<size_t>(B.asIndex()));
      else if (B.isExpr())
        mix(Str(std::get<Binding::ExprB>(B.V).Key));
      else
        mix(Str(B.isVar() ? B.asVar() : B.asProc()));
    }
    return H;
  }
};

/// The variables satisfyFormula enumerates over the universe on every
/// way it can satisfy \p F, when those in \p MayBound may already be
/// bound; adds to \p MayBound what F may bind. Mirrors satisfyFormula's
/// strategy: stmt patterns, analysis labels and the result of computes
/// bind by matching, conjuncts run left to right, and everything else
/// enumerates its unbound variables.
std::set<std::string> alwaysEnumerated(const Formula &F,
                                       const LabelRegistry &Registry,
                                       std::set<std::string> &MayBound) {
  std::set<std::string> Out;
  std::vector<std::pair<std::string, MetaKind>> Enumerates;
  switch (F.K) {
  case Formula::Kind::FK_True:
  case Formula::Kind::FK_False:
    return Out;
  case Formula::Kind::FK_And:
    for (const FormulaPtr &Kid : F.Kids)
      Out.merge(alwaysEnumerated(*Kid, Registry, MayBound));
    return Out;
  case Formula::Kind::FK_Or: {
    const std::set<std::string> Before = MayBound;
    for (size_t K = 0; K < F.Kids.size(); ++K) {
      std::set<std::string> KidBound = Before;
      std::set<std::string> KidOut =
          alwaysEnumerated(*F.Kids[K], Registry, KidBound);
      MayBound.merge(KidBound);
      if (K == 0)
        Out = std::move(KidOut);
      else
        std::erase_if(Out, [&](const std::string &V) {
          return !KidOut.count(V);
        });
    }
    return Out;
  }
  case Formula::Kind::FK_Label:
    if (F.LabelName == "computes") {
      collectMetaKinds(F.Args[0], Enumerates);
      break;
    }
    if (F.LabelName == "stmt" || Registry.isAnalysisLabel(F.LabelName))
      break;
    [[fallthrough]];
  case Formula::Kind::FK_Not:
  case Formula::Kind::FK_Eq:
  case Formula::Kind::FK_Case:
    collectFreeMetas(F, Enumerates);
    break;
  }
  for (const auto &Var : Enumerates)
    if (!MayBound.count(Var.first))
      Out.insert(Var.first);
  std::vector<std::pair<std::string, MetaKind>> Frees;
  collectFreeMetas(F, Frees);
  for (const auto &Var : Frees)
    MayBound.insert(Var.first);
  return Out;
}

} // namespace

GuardSolution engine::solveGuard(Direction Dir, const Guard &Gd,
                                 const Cfg &G,
                                 const LabelRegistry &Registry,
                                 const Labeling *AnalysisLabeling,
                                 const std::set<Substitution> &Seeds) {
  const Procedure &P = G.proc();
  int N = G.size();
  DirectedView View{G, Dir};
  std::vector<bool> Live = View.liveNodes();

  Universe Univ = buildUniverse(P);
  auto makeCtx = [&](int I) {
    return NodeContext{&P, I, &Registry, AnalysisLabeling, &Univ};
  };

  // GEN(n): the facts that make ψ1 true at n and agree with a seed. A
  // seed saves work only on a variable satisfyFormula would otherwise
  // enumerate over the universe; one that ψ1 may bind by matching n's
  // statement is mostly fixed by n already, and seeding it would
  // multiply the calls by the number of seeds. So satisfyFormula runs
  // once per distinct seed restricted to the always-enumerated
  // variables, and when that restriction dropped a variable its results
  // are filtered against the full seeds.
  std::set<std::string> MayBound;
  const std::set<std::string> Enumerated =
      alwaysEnumerated(*Gd.Psi1, Registry, MayBound);
  std::set<Substitution> Calls;
  bool Filter = false;
  for (const Substitution &Seed : Seeds) {
    Substitution Call;
    for (const auto &[Name, B] : Seed)
      if (Enumerated.count(Name))
        Call.bind(Name, B);
      else
        Filter = true;
    Calls.insert(std::move(Call));
  }
  // A fact that binds every seed variable agrees with a seed when its
  // restriction is one; a fact that leaves some unbound (a disjunct that
  // never mentions it) is checked against each seed.
  auto agreesWithSeed = [&](const Substitution &S) {
    if (!Filter)
      return true;
    Substitution Proj;
    for (const auto &Seed : *Seeds.begin())
      if (const Binding *B = S.lookup(Seed.first))
        Proj.bind(Seed.first, *B);
    if (Proj.size() == Seeds.begin()->size())
      return Seeds.count(Proj) > 0;
    return std::any_of(Seeds.begin(), Seeds.end(),
                       [&](Substitution Seed) { return Seed.merge(Proj); });
  };

  // U = ∪ GEN is the finite universe of facts. Each fact is interned
  // once, by hash (a node-independent ψ1 generates all of U at every
  // node), and its id is its rank in Substitution order, so walking set
  // bits upward visits facts in std::set order.
  std::unordered_map<Substitution, size_t, SubstitutionHash> Interned;
  std::vector<std::pair<int, const size_t *>> GenSites; // (node, &id)
  for (int I = 0; I < N; ++I)
    if (Live[I])
      for (const Substitution &Call : Calls)
        for (Substitution &S : satisfyFormula(*Gd.Psi1, makeCtx(I), Call))
          if (agreesWithSeed(S))
            GenSites.emplace_back(I, &Interned.try_emplace(std::move(S))
                                          .first->second);
  std::vector<std::pair<const Substitution, size_t> *> ByRank;
  for (auto &Entry : Interned)
    ByRank.push_back(&Entry);
  std::sort(ByRank.begin(), ByRank.end(),
            [](const auto *A, const auto *B) { return A->first < B->first; });
  std::vector<const Substitution *> Facts(ByRank.size()); // by id
  for (size_t Id = 0; Id < ByRank.size(); ++Id) {
    ByRank[Id]->second = Id;
    Facts[Id] = &ByRank[Id]->first;
  }

  // Facts are uint64_t bitsets over U: W words per node, rows stored
  // flat, one fact per bit.
  const size_t W = (Facts.size() + 63) / 64;
  auto row = [W](std::vector<uint64_t> &Bits, int I) {
    return Bits.data() + I * W;
  };
  auto setBit = [](uint64_t *Row, size_t F) {
    Row[F / 64] |= uint64_t(1) << (F % 64);
  };
  std::vector<uint64_t> Gen(N * W);
  for (auto [I, Id] : GenSites)
    setBit(row(Gen, I), *Id);

  // ψ2 filter, memoized per (node, projection of θ onto ψ2's free
  // variables): facts differing only in variables ψ2 does not mention
  // share one evaluation. Facts are grouped by projection; deciding one
  // fact at a node records the verdict for its whole group in the node's
  // Decided/Holds masks, so later sweeps filter IN with word-wise ANDs
  // and evaluate nothing.
  std::vector<std::pair<std::string, MetaKind>> Psi2Frees;
  collectFreeMetas(*Gd.Psi2, Psi2Frees);
  std::unordered_map<Substitution, std::vector<size_t>, SubstitutionHash>
      ByProjection;
  std::vector<const std::vector<size_t> *> SameProjection(Facts.size());
  for (size_t F = 0; F < Facts.size(); ++F) {
    Substitution Proj;
    for (const auto &Free : Psi2Frees)
      if (const Binding *B = Facts[F]->lookup(Free.first))
        Proj.bind(Free.first, *B);
    std::vector<size_t> &Members = ByProjection[std::move(Proj)];
    Members.push_back(F);
    SameProjection[F] = &Members;
  }
  std::vector<uint64_t> Decided(N * W), Holds(N * W);
  auto decidePsi2 = [&](int I, size_t F) {
    auto R = evalFormula(*Gd.Psi2, makeCtx(I), *Facts[F]);
    bool Ok = R.has_value() && *R; // undeterminable => conservatively drop
    for (size_t Same : *SameProjection[F]) {
      setBit(row(Decided, I), Same);
      if (Ok)
        setBit(row(Holds, I), Same);
    }
  };

  // OUT is initialized to U at live nodes (optimistic greatest fixed
  // point for the ∩ meet).
  std::vector<uint64_t> Out(N * W);
  for (int I = 0; I < N; ++I) {
    if (!Live[I])
      continue;
    uint64_t *OutI = row(Out, I);
    std::fill_n(OutI, W, ~uint64_t(0));
    if (Facts.size() % 64)
      OutI[W - 1] = (uint64_t(1) << (Facts.size() % 64)) - 1;
  }

  // IN = ∩ over flow-predecessors' OUT, word by word; roots have IN = ∅.
  // Returns |OUT| of the first live flow-predecessor (0 at a root), the
  // base of the meet_dropped counter. A live non-root node always has
  // one (it was reached from a root).
  std::vector<uint64_t> In(W);
  auto meet = [&](int I) {
    std::fill(In.begin(), In.end(), 0);
    uint64_t FirstSize = 0;
    if (View.isRoot(I))
      return FirstSize;
    bool First = true;
    for (int Pd : View.flowPreds(I)) {
      if (!Live[Pd])
        continue; // no constraining path through a dead node
      const uint64_t *OutPd = row(Out, Pd);
      if (First)
        for (size_t K = 0; K < W; ++K)
          FirstSize += std::popcount(OutPd[K]);
      for (size_t K = 0; K < W; ++K)
        In[K] = First ? OutPd[K] : In[K] & OutPd[K];
      First = false;
    }
    return FirstSize;
  };

  // Evaluation order: reverse post-order over the flow direction.
  // Round-robin sweeps in RPO converge in O(loop-nesting-depth) passes
  // for reducible CFGs (a FIFO worklist revisits nodes an order of
  // magnitude more often on loop-heavy code).
  std::vector<int> Rpo;
  {
    std::vector<int> State(N, 0); // 0 = unvisited, 1 = open, 2 = done
    std::vector<std::pair<int, size_t>> Stack;
    for (int R = 0; R < N; ++R) {
      if (!Live[R] || !View.isRoot(R) || State[R])
        continue;
      Stack.emplace_back(R, 0);
      State[R] = 1;
      while (!Stack.empty()) {
        auto &[I, Next] = Stack.back();
        const std::vector<int> &Succs = View.flowSuccs(I);
        bool Descended = false;
        while (Next < Succs.size()) {
          int S = Succs[Next++];
          if (Live[S] && State[S] == 0) {
            State[S] = 1;
            Stack.emplace_back(S, 0);
            Descended = true;
            break;
          }
        }
        if (Descended)
          continue;
        State[I] = 2;
        Rpo.push_back(I);
        Stack.pop_back();
      }
    }
    std::reverse(Rpo.begin(), Rpo.end());
  }

  // Deterministic solve-shape counters (identical across --jobs widths):
  // facts dropped by the ∩ meet vs the first predecessor's OUT, and
  // facts dropped because ψ2 failed to hold.
  uint64_t MeetDropped = 0;
  uint64_t Psi2Dropped = 0;

  GuardSolution Sol;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int I : Rpo) {
      ++Sol.Iterations;
      uint64_t FirstSize = meet(I);

      const uint64_t *GenI = row(Gen, I);
      const uint64_t *DecidedI = row(Decided, I);
      const uint64_t *HoldsI = row(Holds, I);
      uint64_t *OutI = row(Out, I);
      for (size_t K = 0; K < W; ++K)
        while (uint64_t Fresh = In[K] & ~DecidedI[K])
          decidePsi2(I, K * 64 + std::countr_zero(Fresh));

      // OUT = {θ ∈ IN : ψ2 holds} ∪ GEN, with the change test on the
      // same pass.
      uint64_t InSize = 0;
      for (size_t K = 0; K < W; ++K) {
        uint64_t Kept = In[K] & HoldsI[K];
        InSize += std::popcount(In[K]);
        Psi2Dropped += std::popcount(In[K] & ~Kept);
        uint64_t NewOut = GenI[K] | Kept;
        Changed |= NewOut != OutI[K];
        OutI[K] = NewOut;
      }
      MeetDropped += FirstSize - InSize;
    }
  }

  // The matching point of a node is its IN at the fixed point; every OUT
  // is final, so one more meet per node recomputes it. Facts come out in
  // id order, which is std::set order.
  Sol.AtNode.assign(N, {});
  for (int I : Rpo) {
    meet(I);
    std::set<Substitution> &At = Sol.AtNode[I];
    for (size_t K = 0; K < W; ++K)
      for (uint64_t Bits = In[K]; Bits; Bits &= Bits - 1)
        At.emplace_hint(At.end(), *Facts[K * 64 + std::countr_zero(Bits)]);
  }

  if (support::Telemetry *T = support::Telemetry::active()) {
    T->Metrics.add("dataflow.solves");
    T->Metrics.add("dataflow.universe", Facts.size());
    T->Metrics.add("dataflow.fixpoint_iters", Sol.Iterations);
    T->Metrics.add("dataflow.meet_dropped", MeetDropped);
    T->Metrics.add("dataflow.psi2_dropped", Psi2Dropped);
    for (int I = 0; I < N; ++I)
      if (Live[I])
        T->Metrics.observe("dataflow.subst_set_size",
                           static_cast<double>(Sol.AtNode[I].size()));
  }

  return Sol;
}
