"""Pluggable optimizer drivers for the §5.2 augmentation study.

The paper answers "which new conduits cut risk the most" with one fixed
greedy search.  This module generalizes that search into an
ArchGym-style driver interface: an :class:`AugmentationEnv` wraps one
provider's routing state (the substrate's batched-Dijkstra scoring) and
exposes evaluate/estimate primitives, and a :class:`Driver` proposes
candidate *plans* — ordered
tuples of pool indices — observes their measured exposures, and reports
the best plan it found.

Four drivers ship:

* ``greedy`` — the paper's search, byte-identical to the pre-driver
  ``improvement_curve`` (and therefore to the pinned fig11 goldens).
* ``anneal`` — simulated annealing over plan mutations.
* ``evolutionary`` — a small generational GA with tournament selection.
* ``random`` — uniform random plans; the baseline the smarter drivers
  must beat.

Every driver is deterministic for a fixed seed: all randomness flows
from one ``random.Random(seed)`` and no code path iterates a set, so
results are stable across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from typing import List, Optional, Protocol, Sequence, Set, Tuple, Union

from repro.fibermap.elements import FiberMap
from repro.mitigation import augmentation as _aug
from repro.mitigation.augmentation import (
    COST_PENALTY_PER_KM,
    LENGTH_EPSILON,
    AugmentationResult,
    _demand_costs,
    _footprint_view,
    candidate_gain,
    candidate_new_edges,
)
from repro.obs.tracer import get_tracer
from repro.perf.substrate import substrate_for
from repro.transport.network import EdgeKey, TransportationNetwork

Plan = Tuple[int, ...]


class _SubstrateEngine:
    """Array-backed routing state: batched multi-source Dijkstra solves,
    O(1) upserts per applied candidate (DESIGN §10).

    Each view state is solved at most once per source.  The exposure
    walk solves the demand sources and keeps those rows; an estimate at
    the same state reuses them and solves only the sources it adds (the
    far demand endpoints and the candidates' endpoints).  ``apply`` and
    ``reset`` drop the rows.  scipy solves every source independently,
    so a row does not depend on which batch produced it.
    """

    def __init__(
        self,
        fiber_map: FiberMap,
        isp: str,
        candidates: List[Tuple[EdgeKey, float]],
    ):
        conduits = substrate_for(fiber_map)
        self._base = _footprint_view(conduits, isp)
        self.demands = sorted(
            {link.endpoints for link in fiber_map.links_of(isp)}
        )
        footprint_cities = conduits.footprint_cities(isp)
        eligible = [
            (edge, length)
            for edge, length in candidates
            if edge[0] in footprint_cities and edge[1] in footprint_cities
        ]
        self.pool = eligible[: _aug.MAX_CANDIDATES]
        self.pool_truncated = len(eligible) - len(self.pool)
        index = self._base.index
        self._demand_sources = [a for a, _ in self.demands]
        # What only an estimate reads: far demand endpoints and
        # candidate endpoints that are not demand sources.
        self._estimate_sources = sorted(
            {b for _, b in self.demands}
            .union(*(edge for edge, _ in self.pool))
            .difference(self._demand_sources)
        )
        # Demands whose endpoints the node index knows, as indices.
        self._demand_ids = [
            (a, index[a], index[b])
            for a, b in self.demands
            if a in index and b in index
        ]
        self.view = self._base.clone()
        self._rows: Optional[tuple] = None
        self._estimate_rows: Optional[tuple] = None
        self.baseline = self._exposure()

    def _solve(self, sources: List[str]) -> tuple:
        dist, pred, row_of = self.view.dijkstra(sources, "w")
        get_tracer().count("mitigation.augmentation.sources_solved", len(row_of))
        return dist, pred, row_of

    def _demand_rows(self) -> tuple:
        if self._rows is None:
            self._rows = self._solve(self._demand_sources)
        return self._rows

    def _exposure(self) -> float:
        """Traffic-weighted average shared risk of the demands, each
        walked off the demand sources' predecessor rows."""
        view = self.view
        _dist, pred, row_of = self._demand_rows()
        present = view._incidence().tolist()
        risk = view.weights["risk"].tolist()
        edge_of = view._edge_of
        total_risk = 0.0
        total_hops = 0
        for a, ai, bi in self._demand_ids:
            if not (present[ai] and present[bi]):
                continue
            path = view.walk(pred[row_of[a]], ai, bi)
            if path is None:
                continue
            for u, v in zip(path, path[1:]):
                total_risk += risk[edge_of[(u, v) if u < v else (v, u)]]
                total_hops += 1
        if total_hops == 0:
            return 0.0
        return total_risk / total_hops

    def reset(self) -> None:
        self.view = self._base.clone()
        self._rows = self._estimate_rows = None

    def estimate_scores(self, applied: Set[int]) -> List[Optional[float]]:
        view = self.view
        dist, _pred, row_of = self._demand_rows()
        if self._estimate_rows is None:
            self._estimate_rows = self._solve(self._estimate_sources)
        more_dist, _pred, more_row_of = self._estimate_rows

        def row(key: str):
            r = row_of.get(key)
            return dist[r] if r is not None else more_dist[more_row_of[key]]

        ai, bi, costs = _demand_costs(view, dist, row_of, self.demands)
        scores: List[Optional[float]] = []
        for pos, (edge, length) in enumerate(self.pool):
            if pos in applied:
                scores.append(None)
                continue
            new_weight = 1.0 + LENGTH_EPSILON * length
            gain = candidate_gain(
                row(edge[0]), row(edge[1]), ai, bi, costs, new_weight
            )
            scores.append(gain - COST_PENALTY_PER_KM * length)
        return scores

    def apply(self, pos: int) -> float:
        (a, b), length = self.pool[pos]
        self.view.upsert_edge(
            a,
            b,
            "w",
            {"w": 1.0 + LENGTH_EPSILON * length, "risk": 1.0},
            payload={"conduit": -1},
        )
        self._rows = self._estimate_rows = None
        return self._exposure()


class AugmentationEnv:
    """One provider's §5.2 search environment.

    State is an ordered tuple of applied pool indices (a *plan*).
    :meth:`evaluate` routes the provider's demands after each addition
    and returns the exposure trail; evaluating a plan that extends the
    current one only applies the tail, so greedy's incremental loop
    costs one measurement per step.  :meth:`estimate_scores` runs the
    vectorized gain heuristic at the current state — the signal greedy
    ranks on and smarter drivers may seed from.
    """

    def __init__(
        self,
        fiber_map: FiberMap,
        network: TransportationNetwork,
        isp: str,
        max_k: int = 10,
        candidates: Optional[List[Tuple[EdgeKey, float]]] = None,
    ):
        if candidates is None:
            candidates = candidate_new_edges(fiber_map, network)
        self._engine = self._make_engine(fiber_map, isp, candidates)
        self.isp = isp
        self.max_k = max_k
        self.pool = self._engine.pool
        self.pool_truncated = self._engine.pool_truncated
        self.baseline = self._engine.baseline
        self.evaluations = 0
        self._applied: List[int] = []
        self._trail: List[float] = []
        if self.pool_truncated:
            get_tracer().count(
                "mitigation.augmentation.candidates_truncated",
                self.pool_truncated,
            )

    @staticmethod
    def _make_engine(fiber_map, isp, candidates) -> _SubstrateEngine:
        return _SubstrateEngine(fiber_map, isp, candidates)

    @property
    def num_candidates(self) -> int:
        return len(self.pool)

    @property
    def applied(self) -> Plan:
        return tuple(self._applied)

    def reset(self) -> None:
        """Return to the unaugmented footprint."""
        if self._applied:
            self._engine.reset()
            self._applied = []
            self._trail = []

    def estimate_scores(self) -> List[Optional[float]]:
        """Heuristic score per pool candidate at the current state
        (``None`` for already-applied candidates)."""
        return self._engine.estimate_scores(set(self._applied))

    def apply(self, pos: int) -> float:
        """Add pool candidate *pos* and measure the resulting exposure."""
        if not 0 <= pos < len(self.pool):
            raise IndexError(f"candidate index out of range: {pos}")
        if pos in self._applied:
            raise ValueError(f"candidate {pos} already applied")
        if len(self._applied) >= self.max_k:
            raise ValueError(f"plan longer than max_k={self.max_k}")
        exposure = self._engine.apply(pos)
        self._applied.append(pos)
        self._trail.append(exposure)
        return exposure

    def evaluate(self, plan: Sequence[int]) -> Tuple[float, ...]:
        """Measured exposure after each addition of *plan*, in order.

        Shares the prefix with the current state when possible; anything
        else resets and replays (float-identical either way — routing is
        a pure function of the applied set).
        """
        plan = tuple(int(p) for p in plan)
        if len(set(plan)) != len(plan):
            raise ValueError(f"plan repeats a candidate: {plan}")
        if len(plan) > self.max_k:
            raise ValueError(f"plan longer than max_k={self.max_k}: {plan}")
        if list(plan[: len(self._applied)]) != self._applied:
            self.reset()
        for pos in plan[len(self._applied) :]:
            self.apply(pos)
        self.evaluations += 1
        return tuple(self._trail)

    def result(
        self,
        plan: Sequence[int],
        exposures: Sequence[float],
        driver: str,
    ) -> AugmentationResult:
        """Package a plan + exposure trail as Figure 11 data.

        The trail is padded to ``max_k`` with its last value (the
        baseline for an empty plan): once a search stops adding, the
        curve flattens — Suddenlink's case in the paper.
        """
        plan = tuple(int(p) for p in plan)
        exposures = tuple(float(x) for x in exposures)
        if len(exposures) != len(plan):
            raise ValueError("plan and exposure trail lengths differ")
        pad = exposures[-1] if exposures else self.baseline
        risk_after = exposures + (pad,) * (self.max_k - len(exposures))
        return AugmentationResult(
            isp=self.isp,
            baseline_risk=self.baseline,
            risk_after=risk_after,
            added_edges=tuple(self.pool[p][0] for p in plan),
            pool_size=len(self.pool),
            pool_truncated=self.pool_truncated,
            driver=driver,
        )


class Driver(Protocol):
    """Search strategy over an :class:`AugmentationEnv`.

    The :func:`run_driver` loop alternates ``propose`` (next plan to
    measure, ``None`` to stop) and ``observe`` (the measured exposure
    trail); ``best()`` then reports the winning plan.  Drivers carrying
    an RNG must derive every draw from their seed so a fixed seed
    replays exactly.
    """

    name: str

    def propose(self, env: AugmentationEnv) -> Optional[Plan]: ...

    def observe(self, plan: Plan, exposures: Tuple[float, ...]) -> None: ...

    def best(self) -> Tuple[Plan, Tuple[float, ...]]: ...


class GreedyDriver:
    """The paper's §5.2 search: per step, rank candidates by estimated
    gain minus the deployment-cost penalty, apply the strict-best
    (first wins ties), stop when nothing scores above zero.

    Byte-identical to the pre-driver ``improvement_curve``: the
    selection loop, float accumulation order, and flat-curve stopping
    behavior are unchanged.
    """

    name = "greedy"

    def __init__(self, seed: int = 0):
        # Deterministic search; the seed is accepted (and ignored) so
        # every driver constructs uniformly.
        self._plan: Plan = ()
        self._exposures: Tuple[float, ...] = ()
        self._done = False

    def propose(self, env: AugmentationEnv) -> Optional[Plan]:
        if self._done or len(self._plan) >= env.max_k:
            return None
        if env.applied != self._plan:
            env.evaluate(self._plan)
        best_pos: Optional[int] = None
        best_score = 0.0
        for pos, score in enumerate(env.estimate_scores()):
            if score is not None and score > best_score:
                best_score = score
                best_pos = pos
        if best_pos is None:
            # No candidate helps; the curve flattens (Suddenlink's case).
            self._done = True
            return None
        return self._plan + (best_pos,)

    def observe(self, plan: Plan, exposures: Tuple[float, ...]) -> None:
        self._plan = plan
        self._exposures = exposures

    def best(self) -> Tuple[Plan, Tuple[float, ...]]:
        return self._plan, self._exposures


class _StochasticDriver:
    """Shared bookkeeping for the seeded search drivers: a private RNG,
    an evaluation budget, and a best-ever incumbent that starts at the
    empty plan (so no driver ever reports a plan worse than baseline)."""

    name = "stochastic"

    def __init__(self, seed: int = 0, budget: int = 64):
        self._rng = random.Random(seed)
        self.budget = int(budget)
        self.evals = 0
        self._best_plan: Plan = ()
        self._best_exposures: Tuple[float, ...] = ()
        self._best_final: Optional[float] = None

    def _final(self, exposures: Tuple[float, ...], env_baseline: float) -> float:
        return exposures[-1] if exposures else env_baseline

    def _consider(self, plan: Plan, exposures: Tuple[float, ...], final: float) -> bool:
        if self._best_final is None or final < self._best_final:
            self._best_final = final
            self._best_plan = plan
            self._best_exposures = exposures
            return True
        return False

    def _random_plan(self, env: AugmentationEnv, max_len: Optional[int] = None) -> Plan:
        limit = min(env.max_k, env.num_candidates)
        if max_len is not None:
            limit = min(limit, max_len)
        if limit <= 0:
            return ()
        k = self._rng.randint(1, limit)
        return tuple(self._rng.sample(range(env.num_candidates), k))

    def best(self) -> Tuple[Plan, Tuple[float, ...]]:
        return self._best_plan, self._best_exposures


class RandomBaselineDriver(_StochasticDriver):
    """Uniform random plans — the floor every smarter driver must beat."""

    name = "random"

    def __init__(self, seed: int = 0, budget: int = 64):
        super().__init__(seed=seed, budget=budget)
        self._baseline: Optional[float] = None

    def propose(self, env: AugmentationEnv) -> Optional[Plan]:
        if self._baseline is None:
            self._baseline = env.baseline
            self._best_final = env.baseline
        if self.evals >= self.budget or env.num_candidates == 0:
            return None
        return self._random_plan(env)

    def observe(self, plan: Plan, exposures: Tuple[float, ...]) -> None:
        self.evals += 1
        self._consider(plan, exposures, self._final(exposures, self._baseline))


class AnnealingDriver(_StochasticDriver):
    """Simulated annealing over plan mutations.

    A move mutates the current plan (add / drop / swap a candidate);
    worse plans are accepted with probability ``exp(-delta / T)`` under
    a geometric cooling schedule scaled to the baseline exposure, so
    acceptance behaves consistently across providers with very
    different exposure magnitudes.
    """

    name = "anneal"

    def __init__(
        self,
        seed: int = 0,
        budget: int = 64,
        initial_temp: float = 0.05,
        cooling: float = 0.92,
    ):
        super().__init__(seed=seed, budget=budget)
        self.initial_temp = float(initial_temp)
        self.cooling = float(cooling)
        self._baseline: Optional[float] = None
        self._current_plan: Plan = ()
        self._current_final: Optional[float] = None
        self._pending: Optional[Plan] = None

    def _mutate(self, env: AugmentationEnv, plan: Plan) -> Plan:
        pool = env.num_candidates
        unused = [p for p in range(pool) if p not in plan]
        moves: List[str] = []
        if plan and len(plan) < env.max_k and unused:
            moves.append("add")
        if len(plan) > 1:
            moves.append("drop")
        if plan and unused:
            moves.append("swap")
        if not moves:
            return self._random_plan(env)
        move = self._rng.choice(moves)
        if move == "add":
            pos = self._rng.randrange(len(plan) + 1)
            cand = self._rng.choice(unused)
            return plan[:pos] + (cand,) + plan[pos:]
        if move == "drop":
            pos = self._rng.randrange(len(plan))
            return plan[:pos] + plan[pos + 1 :]
        pos = self._rng.randrange(len(plan))
        cand = self._rng.choice(unused)
        return plan[:pos] + (cand,) + plan[pos + 1 :]

    def propose(self, env: AugmentationEnv) -> Optional[Plan]:
        if self._baseline is None:
            self._baseline = env.baseline
            self._best_final = env.baseline
            self._current_final = env.baseline
        if self.evals >= self.budget or env.num_candidates == 0:
            return None
        if self._current_plan:
            self._pending = self._mutate(env, self._current_plan)
        else:
            self._pending = self._random_plan(env)
        return self._pending

    def observe(self, plan: Plan, exposures: Tuple[float, ...]) -> None:
        self.evals += 1
        final = self._final(exposures, self._baseline)
        self._consider(plan, exposures, final)
        delta = final - self._current_final
        scale = max(abs(self._baseline), 1e-12)
        temp = self.initial_temp * scale * (self.cooling ** self.evals)
        accept = delta <= 0.0
        if not accept and temp > 0.0:
            accept = self._rng.random() < _safe_exp(-delta / temp)
        if accept:
            self._current_plan = plan
            self._current_final = final


class EvolutionaryDriver(_StochasticDriver):
    """Generational GA: tournament selection, one-point crossover on
    plans (order-preserving dedupe), mutation via the annealer's move
    set, elitism of the top two."""

    name = "evolutionary"

    def __init__(
        self,
        seed: int = 0,
        budget: int = 64,
        population: int = 8,
        mutation_rate: float = 0.35,
    ):
        super().__init__(seed=seed, budget=budget)
        self.population = max(2, int(population))
        self.mutation_rate = float(mutation_rate)
        self._baseline: Optional[float] = None
        self._pending: List[Plan] = []
        self._scored: List[Tuple[float, Plan]] = []
        self._mutator = AnnealingDriver(seed=0)

    def _crossover(self, env: AugmentationEnv, pa: Plan, pb: Plan) -> Plan:
        cut_a = self._rng.randint(0, len(pa))
        cut_b = self._rng.randint(0, len(pb))
        merged: List[int] = []
        for pos in pa[:cut_a] + pb[cut_b:]:
            if pos not in merged:
                merged.append(pos)
        child = tuple(merged[: env.max_k])
        if not child:
            return self._random_plan(env, max_len=2)
        return child

    def _next_generation(self, env: AugmentationEnv) -> List[Plan]:
        ranked = sorted(self._scored, key=lambda sf: (sf[0], sf[1]))
        elite = [plan for _, plan in ranked[:2]]
        children: List[Plan] = list(elite)
        while len(children) < self.population:
            parents: List[Plan] = []
            for _ in range(2):
                i, j = self._rng.sample(range(len(ranked)), 2)
                parents.append(
                    ranked[i][1] if ranked[i][0] <= ranked[j][0] else ranked[j][1]
                )
            child = self._crossover(env, parents[0], parents[1])
            if self._rng.random() < self.mutation_rate:
                self._mutator._rng = self._rng
                child = self._mutator._mutate(env, child)
            children.append(child)
        self._scored = []
        return children

    def propose(self, env: AugmentationEnv) -> Optional[Plan]:
        if self._baseline is None:
            self._baseline = env.baseline
            self._best_final = env.baseline
        if self.evals >= self.budget or env.num_candidates == 0:
            return None
        if not self._pending:
            if not self._scored:
                self._pending = [
                    self._random_plan(env, max_len=3)
                    for _ in range(self.population)
                ]
            else:
                self._pending = self._next_generation(env)
        return self._pending.pop(0)

    def observe(self, plan: Plan, exposures: Tuple[float, ...]) -> None:
        self.evals += 1
        final = self._final(exposures, self._baseline)
        self._consider(plan, exposures, final)
        self._scored.append((final, plan))


def _safe_exp(x: float) -> float:
    import math

    try:
        return math.exp(x)
    except OverflowError:
        return 0.0 if x < 0 else float("inf")


#: Registered driver factories, keyed by canonical name.
DRIVERS = {
    "greedy": GreedyDriver,
    "anneal": AnnealingDriver,
    "evolutionary": EvolutionaryDriver,
    "random": RandomBaselineDriver,
}

_ALIASES = {
    "greedy": "greedy",
    "anneal": "anneal",
    "annealing": "anneal",
    "simulated-annealing": "anneal",
    "sa": "anneal",
    "evolutionary": "evolutionary",
    "evolve": "evolutionary",
    "ga": "evolutionary",
    "genetic": "evolutionary",
    "random": "random",
    "random-baseline": "random",
}


def canonical_driver(name: str) -> str:
    """Resolve a driver alias to its canonical registry name."""
    canon = _ALIASES.get(name.strip().lower())
    if canon is None:
        known = ", ".join(sorted(DRIVERS))
        raise ValueError(f"unknown driver {name!r} (known: {known})")
    return canon


def make_driver(
    spec: Union[str, Driver],
    seed: int = 0,
    **params,
) -> Driver:
    """Build a driver from a name/alias, or pass an instance through."""
    if not isinstance(spec, str):
        return spec
    return DRIVERS[canonical_driver(spec)](seed=seed, **params)


def run_driver(env: AugmentationEnv, driver: Driver) -> AugmentationResult:
    """Drive the propose/observe loop to completion and package the
    driver's best plan as an :class:`AugmentationResult`."""
    while True:
        plan = driver.propose(env)
        if plan is None:
            break
        exposures = env.evaluate(plan)
        driver.observe(tuple(plan), exposures)
    best_plan, best_exposures = driver.best()
    return env.result(best_plan, best_exposures, driver.name)
