"""Exhaustive enumeration engines for 2-to-1 polynomial searches, with
deterministic reporting and comparison against the bundled reference tables.

One driver and one shard function serve the four templates in SHAPES, which
declares each shape's shard items, all ints: every a3 for degree 5, and the
leading exponent k for the sparse shapes.  Trinomials take only the k that
hold the least pair (k, l) of a unit-relabelling orbit, and each trinomial
shard lists those least pairs for its own k values.
Every shard builds one table set, read by every shape and by the fiber sieve:
the multiply table of each field element and the power list of each exponent.
Candidates are verified by the early-exit kernels of two2one.  Shard i of W
scans every W-th item from the i-th on; the cost of an item grows with k, so
the strides carry about equal work.  Every search runs its shards through
one pool class, _Pool, opened per search or shared by a run of searches
(worker_pool): shard 0 runs in the calling process and the others in up to
W - 1 worker processes.  The pool forks its workers with os.fork, writes each
one a pickled task on a pipe of its own and reads the result from another; it
imports neither multiprocessing nor concurrent.futures, and pickle only when
it sends a task.  Where os.fork does not exist (Windows), the pool forks no
worker and the calling process runs every shard.
Partial hit lists are merged and globally sorted, so a report is
byte-identical for any worker count.  Every shape is capped at
n <= SEARCH_MAX_N, or SEARCH_LONG_MAX_N with the long-run flag.

The trinomial and degree-5 templates read f = h + alpha*x, with h the rest of
the template (x^k + beta*x^l, or x^5 + a3*x^3 + a2*x^2) and h(0) = 0.  For a
point x0, y != x0 lies in the fiber of x0 exactly when
D(y) = (h(y) + h(x0))/(y + x0) = alpha, and a 2-to-1 f has a fiber of exactly
two points through every x0.  So alpha survives x0 only if D takes the value
alpha exactly once, and one pass over y decides this for every alpha at once.
The fiber sieve runs that pass at x0 = 0, 1 and g, and only the alphas that
survive all three go to the fiber kernel; a rejected alpha cannot be a hit, so
the reports are those of the kernel alone.  Every candidate still counts as
scanned, and the report's sieve_rejected says how many the sieve decided.
At x0 = 0 a trinomial's pass reads D(y) = y^(k-1) + beta*y^(l-1) over
y != 0, and y -> y^t permutes those y for a unit t mod N, so D takes each
value as often at (k-1, l-1) as at ((k-1)*t, (l-1)*t) mod N.  A shard's
sieve decides that stage once per class of (k - 1, l - 1), beta and the
scanned alphas, with t the inverse of k - 1 if it is a unit, else of l - 1
if that is, else 1 (_zero_class).
Trinomial survivors then go to the kernel one Frobenius orbit at a time:
f^sigma = sq o f o sqrt is x^k + beta^2*x^l + alpha^2*x, 2-to-1 exactly when
f is, so an orbit with a rejected member holds no hit, and one kernel call
decides all the others.  Binomials (alpha on x^l, which rescaling moves as it
moves the trinomial's beta) run the fiber kernel on every candidate.  A
quadrinomial has coefficients 1, so the orbit kernel decides it from f at 0
and at the Frobenius-orbit leaders, with x^k + x^l + x built once per (k, l).

The trinomial scan sieves one exponent pair per unit-relabelling orbit: for a
unit e in S = {k, l, 1}, x -> x^(1/e) permutes the field and sends S to S/e,
which holds 1 again.  After monic normalisation and rescaling this is a
bijection between the rescaling orbits of (beta, alpha) at (k, l) and at the
image pair that keeps 2-to-1-ness, so the hits of the orbit's least pair,
relabelled, are the hits of every member.  Each member still counts its own
candidates as scanned, and the sieve's rejections at the least pair count
once per member.

The scan alone decides template membership: each hit carries the number of
template candidates it stands for, and a class's orbit size is that weight
summed over the distinct raw hits in its QM orbit.  One walk over the QM
transforms of a class finds both those raw hits and its canonical.  When
every raw hit has coefficients 1, as in every quadrinomial search, that walk
is over the phi(N) unit relabellings x -> x^d of the class alone, since no
other transform of it has all coefficients 1.  The hits
of a qm report are the canonicals of their classes, and the table comparisons
read them as they are.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from operator import itemgetter, xor

from .field import FieldCtx, field_from_label, fmt_elem, parse_elem
from .poly import SparsePoly, parse_poly
from .tabledata import table1_triples, table2, table3
from .two2one import (
    admissible_family_tags,
    fibers_two_to_one,
    make_family,
    orbits_two_to_one,
    qm_canonical,
    qm_transforms,
    qm_unit_transforms,
)

SEARCH_MAX_N = 6
SEARCH_LONG_MAX_N = 7

# shape -> its shard items, given N = 2^n - 1: a3 runs over the whole field;
# the leading exponent k starts at 3 for binomials (k = 2 gives x^2 + alpha*x,
# always in the linearized class) and trinomials (k > l > 1), and at 4 for
# quadrinomials (k > l > d > 1); a trinomial k is dealt out only when it holds
# the least pair of a unit-relabelling orbit, so every shard scans a candidate
SHAPES = {
    "degree5": lambda N: range(N + 1),
    "binomial": lambda N: range(3, N),
    "trinomial": lambda N: [k for k in range(3, N) if next(_trinomial_leaders(N, k), None)],
    "quadrinomial": lambda N: range(4, N),
}

# table -> (shape, dedupe, field degrees) of the searches that reproduce it
TABLE_RUNS = {
    "I": ("degree5", "none", (3,)),
    "II": ("trinomial", "qm", (3, 4, 5, 6, 7)),
    "III": ("quadrinomial", "qm", (3, 4, 5, 6, 7)),
}

__all__ = [
    "Hit",
    "SearchReport",
    "TableDiff",
    "WorkerDied",
    "search_degree5",
    "search_sparse",
    "compare_with_table",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
]


@dataclass(frozen=True)
class Hit:
    poly: SparsePoly
    orbit_size: int


@dataclass(frozen=True)
class SearchReport:
    ctx: FieldCtx
    shape: str
    dedupe: str
    hits: tuple[Hit, ...]
    candidates_scanned: int
    elapsed_ms: int
    notes: tuple[str, ...] = ()
    # candidates the fiber sieve ruled out without the kernel, directly or, for
    # trinomials, through the unit relabelling of a pair it rejected
    sieve_rejected: int = 0


# ---------------------------------------------------------------------------
# shape templates


def _is_pow2(v: int) -> bool:
    return v & (v - 1) == 0


def _binomial_is_linearized_class(k: int, l: int, N: int) -> bool:
    """Whether x^k + c*x^l is equivalent to a linearized binomial.

    Substituting x^d multiplies both exponents by d mod N; the pair lands on
    two powers of two exactly when k/l is itself a power of two mod N (both
    exponents must be units for that to happen at all).  The residues of 2^i
    mod N = 2^n - 1 are the powers of two below 2^n.
    """
    if math.gcd(k, N) != 1 or math.gcd(l, N) != 1:
        return False
    return _is_pow2(k * pow(l, -1, N) % N)


# ---------------------------------------------------------------------------
# worker internals


def _rescaling_reps(N: int, k: int, l: int, dedupe: str):
    """(u, w, rep) for x^k + beta*x^l + alpha*x: the scan takes beta = g^B
    and alpha = g^A for every B below u and A below w, and rep(B, A), for any
    integers B and A, gives the logs of the scanned pair in the rescaling
    orbit of (g^B, g^A).  The binomial x^k + alpha*x^l takes its alpha = g^B
    for every B below u.

    dedupe="none" scans every pair, so rep reduces both logs mod N.  With
    qm, rescaling by b = g^j maps (beta, alpha) to (beta*b^(l-k),
    alpha*b^(1-k)): in log coordinates the orbit of (B, A) is
    (B, A) + j*(p, q) mod N, so unique representatives are B below
    u = gcd(p, N) and, for the residual stabilizer j in (N/u)Z, A below
    w = gcd((N/u)*q, N).  rep translates by the j with B + j*p = B mod u
    (mod N) and reduces A mod w.
    """
    if dedupe != "qm":
        return N, N, lambda B, A: (B % N, A % N)
    p = (l - k) % N
    q = (1 - k) % N
    u = math.gcd(p, N)
    w = math.gcd((N // u) * q, N)
    r = pow(p // u, -1, N // u)

    def rep(B: int, A: int) -> tuple[int, int]:
        j = -(B // u) * r  # j*p = -(B - B % u) mod N
        return B % u, (A + j * q) % w

    return u, w, rep


@functools.cache
def _unit_inverses(N: int) -> list[int]:
    """1/e mod N for each e below N, 0 where e is not a unit."""
    return [pow(e, -1, N) if math.gcd(e, N) == 1 else 0 for e in range(N)]


def _trinomial_leaders(N: int, k: int):
    """(l, units) for each trinomial exponent pair (k, l) that is the least of
    its unit-relabelling orbit, in template order: for each member of the
    orbit, the unit e in {1, l, k} that _relabel turns into it.

    For a unit e in S = {k, l, 1}, x -> x^(1/e) sends S to S/e, which holds 1
    again; its other two exponents, as (k', l') with k' > l', are a template
    pair, since were they powers of two, e and S would be too.  x^(1/e)
    permutes the field, so it keeps 2-to-1-ness.  The members of S are its
    unit multiples that hold 1, the same set seen from any member, so each
    pair tests locally whether it is the least of its orbit, the one the
    scan sieves, and each shard lists the pairs of its own k values."""
    inv = _unit_inverses(N)
    for l in range(2, k):
        if _is_pow2(k) and _is_pow2(l):
            continue  # linearized shapes are excluded from the template
        members, units = [(k, l)], [1]
        for e, s in ((l, k), (k, l)):  # S/e = {s/e, 1, 1/e}
            v = inv[e]
            if not v:
                continue
            a = s * v % N
            pair = (a, v) if a > v else (v, a)
            if pair in members:
                continue
            if pair < (k, l):
                break
            members.append(pair)
            units.append(e)
        else:
            yield l, tuple(units)


def _relabel(N: int, k: int, l: int, e: int, dedupe: str):
    """(k', l', image) for the unit e in {1, l, k}: x -> x^(1/e) sends
    x^k + g^B*x^l + g^A*x, divided by its leading coefficient, to a member of
    the (k', l') template, and image(B, A) gives the scanned logs of that
    member's rescaling representative.  The log coefficients {k: 0, l: B,
    1: A} move with their exponents, the leading log is subtracted, and the
    member's rescaling map reduces the rest.  Rescaling orbits map onto
    rescaling orbits, so (k', l') has the u*w of (k, l)."""
    v = pow(e, -1, N)
    (k2, lead), (l2, mid), (_, low) = sorted(((k * v % N, 0), (l * v % N, 1), (v, 2)), reverse=True)
    rep = _rescaling_reps(N, k2, l2, dedupe)[2]

    def image(B: int, A: int) -> tuple[int, int]:
        logs = (0, B, A)
        return rep(logs[mid] - logs[lead], logs[low] - logs[lead])

    return k2, l2, image


def _zero_class(N: int, k: int, l: int) -> tuple[int, int]:
    """The exponents ((k - 1)*t, (l - 1)*t) mod N that name the x0 = 0 stage
    of the fiber sieve for x^k + beta*x^l + alpha*x, where t = (k - 1)^(-1)
    when k - 1 is a unit mod N, else (l - 1)^(-1) when l - 1 is, else 1.

    At x0 = 0 the quotient is D(y) = y^(k-1) + beta*y^(l-1) over y != 0, and
    for a unit t, y -> y^t permutes the nonzero elements, so D takes each
    value as often as y^((k-1)*t) + beta*y^((l-1)*t) does: exponents act
    mod N on y != 0.  Pairs with one class therefore keep the same alphas
    at x0 = 0 for each beta."""
    for e in (k - 1, l - 1):
        if math.gcd(e, N) == 1:
            t = pow(e, -1, N)
            break
    else:
        t = 1
    return (k - 1) * t % N, (l - 1) * t % N


def _fiber_sieve(ctx: FieldCtx, tabs, powers):
    """sieve(terms, alphas, key=None): the alphas for which h + alpha*x, h the
    sum of c*x^e over the (e, c) in terms, 0 < e < 2^n, has a fiber of exactly
    two points through each of x0 = 0, g^0 and g^1, in the order of alphas.

    y != x0 lies in the fiber of x0 exactly when D(y) = (h(y) + h(x0))/(y + x0)
    equals alpha, so the fiber has two points exactly when D takes the value
    alpha once over y != x0.  A 2-to-1 map passes at every x0, so a rejected
    alpha is never a hit.  D is the sum of c*q_e, q_e(y) = (y^e + x0^e)/(y + x0),
    and q_e = x0*q_(e-1) + y^(e-1) with q_0 = 0.  For each x0 the sieve keeps
    every q_e over y = g^0 .. g^(2^n - 2) as one byte string, built by that
    recursion from the shard's tables (tabs[c] multiplies by c, powers[m]
    holds y^m at y = g^i) with one bytes.translate and one xor per step; the
    slot of y = x0 holds the value at y = 0, where y^(e-1) reads 0^(e-1).  A
    stage is then one translate by tabs[c], padded to 256 bytes, per term,
    an xor of big ints, and the alphas whose byte D's string counts once.

    key names the class of the x0 = 0 stage: calls that pass one key must
    have the same survivors there, as the trinomial keys (*_zero_class(N,
    k, l), B, w) of beta = g^B and alphas = g^0 .. g^(w-1) do.  The sieve
    decides that stage once per key and keeps its survivors for its own
    life; a call without a key stores nothing.  Field elements must fit in a
    byte, so n <= 8; raises ValueError above.
    """
    order = ctx.order
    if order > 256:
        raise ValueError(f"the fiber sieve keeps field elements in bytes, so n <= 8, got n={ctx.n}")
    N = order - 1
    pad = bytes(256 - order)
    MUL = [bytes(t) + pad for t in tabs]  # translate tables: MUL[c] maps each element to c times it
    strings = []  # per x0, q_e over y for e = 0 .. N
    for x0, slot in ((0, None), (1, 0), (ctx.generator, 1)):
        q = bytes(N)
        Q = [q]
        for m, P in enumerate(powers):
            v = int.from_bytes(q.translate(MUL[x0]), "little") ^ int.from_bytes(P, "little")
            if m and slot is not None:
                v ^= P[slot] << 8 * slot  # 0^m = 0 at y = 0
            q = v.to_bytes(N, "little")
            Q.append(q)
        strings.append(Q)
    zero_strings, *rest = strings
    zero = {}  # key -> the survivors of the x0 = 0 stage

    def stage(Q, terms, alphas):
        D = 0
        for e, c in terms:
            D ^= int.from_bytes(Q[e].translate(MUL[c]), "little")
        count = D.to_bytes(N, "little").count
        return [a for a in alphas if count(a) == 1]

    def sieve(terms, alphas, key=None):
        if key is None:
            alphas = stage(zero_strings, terms, alphas)
        elif key in zero:
            alphas = zero[key]
        else:
            alphas = zero[key] = stage(zero_strings, terms, alphas)
        for Q in rest:
            if not alphas:
                break
            alphas = stage(Q, terms, alphas)
        return alphas

    return sieve


def _shard(args) -> tuple[list[tuple], int, int]:
    """(hits, candidates scanned, candidates the fiber sieve rejected) for one
    stride of a shape's shard items.  A hit is (terms, weight), the weight the
    size of its monic-rescaling orbit when dedupe="qm" prunes, else 1; the
    rescaling translates the coefficient logs, so one (k, l) has one size.

    One table set per shard serves every shape and the fiber sieve: tabs[c]
    multiplies by c, and powers[e] holds x^e at x = g^i.  The kernel's value
    list of a degree-5 or trinomial h is built only for the sieve's
    survivors; quadrinomials cut at[e], x^e at 0 and at the orbit leaders,
    from powers.  For each k of its stride, the trinomial scan sieves every
    candidate of each orbit's least pair (k, l) that _trinomial_leaders
    yields, keying the x0 = 0 stage by _zero_class, then walks
    the survivors under sigma, the map of their logs (B, A) to the
    representative of (beta^2, alpha^2), which permutes the representatives
    with sigma^n the identity: a sigma-orbit with a rejected member holds no
    hit, so the walk stops there, and one kernel call decides an orbit that
    survived whole.  _relabel maps the hits to every member of the orbit."""
    n, modulus, shape, dedupe, items = args
    ctx = FieldCtx(n, modulus)
    order = ctx.order
    N = order - 1
    EXP, LOG = ctx.log_tables()
    tabs = [ctx.mul_table(c) for c in range(order)]
    powers = [[EXP[i * e % N] for i in range(N)] for e in range(N)]
    tg = tabs[ctx.generator]
    hits: list[tuple] = []
    scanned = rejected = 0
    if shape == "degree5":
        A5, A3, A2 = powers[5], powers[3], powers[2]
        sieve = _fiber_sieve(ctx, tabs, powers)
        for a3 in items:
            T3 = tabs[a3]
            for a2, T2 in enumerate(tabs):
                survivors = sieve(((5, 1), (3, a3), (2, a2)), range(order))
                scanned += order
                rejected += order - len(survivors)
                if survivors:
                    W = [A5[i] ^ T3[A3[i]] ^ T2[A2[i]] for i in range(N)]
                    for a1 in survivors:
                        if fibers_two_to_one(order, 0, W, a1, tg):
                            hits.append((tuple(t for t in ((5, 1), (3, a3), (2, a2), (1, a1)) if t[1]), 1))
    elif shape == "binomial":
        for k in items:
            AK = powers[k]
            for l in range(1, k):
                if _binomial_is_linearized_class(k, l, N):
                    continue  # the linearized class is set aside
                u = _rescaling_reps(N, k, l, dedupe)[0]
                TL = tabs[EXP[l]]
                for alpha in EXP[:u]:
                    scanned += 1
                    if fibers_two_to_one(order, 0, AK, alpha, TL):
                        hits.append((((k, 1), (l, alpha)), N // u))
    elif shape == "trinomial":
        sieve = _fiber_sieve(ctx, tabs, powers)
        for k in items:
            for l, units in _trinomial_leaders(N, k):
                AK, AL = powers[k], powers[l]
                u, w, rescale = _rescaling_reps(N, k, l, dedupe)
                sigma = lambda B, A: rescale(2 * B, 2 * A)  # squaring commutes with rescaling
                alphas = EXP[:w]
                zk, zl = _zero_class(N, k, l)
                survivors = {}  # the (B, A) logs of the sieve survivors, in scan order
                for B in range(u):
                    alive = sieve(((k, 1), (l, EXP[B])), alphas, (zk, zl, B, w))
                    rejected += (w - len(alive)) * len(units)
                    survivors.update(dict.fromkeys((B, LOG[a]) for a in alive))
                scanned += u * w * len(units)  # every member has the u*w of (k, l)
                found = []  # the (B, A) logs of the hits
                decided = set()
                for rep in survivors:
                    if rep in decided:
                        continue
                    orbit, m = [rep], sigma(*rep)
                    while m != rep and m in survivors:  # stop at the first member the sieve rejected
                        orbit.append(m)
                        m = sigma(*m)
                    decided.update(orbit)
                    if m == rep:
                        B, A = rep
                        TB = tabs[EXP[B]]
                        H = [a ^ TB[b] for a, b in zip(AK, AL)]  # x^k + g^B*x^l
                        if fibers_two_to_one(order, 0, H, EXP[A], tg):
                            found.extend(orbit)
                if found:
                    weight = N * N // (u * w)
                    for e in units:
                        k2, l2, image = _relabel(N, k, l, e, dedupe)
                        for B, A in found:
                            B, A = image(B, A)
                            hits.append((((k2, 1), (l2, EXP[B]), (1, EXP[A])), weight))
    else:  # quadrinomial
        _, key, leaders, sizes = ctx.orbit_tables()
        at = [(0, *itemgetter(*leaders)(P)) for P in powers]  # x^e at x = 0 and the orbit leaders
        for k in items:
            for l in range(3, k):
                KL = list(map(xor, map(xor, at[k], at[l]), at[1]))  # x^k + x^l + x
                for d in range(2, l):
                    scanned += 1
                    if orbits_two_to_one(map(xor, KL, at[d]), key, sizes):
                        hits.append((((k, 1), (l, 1), (d, 1), (1, 1)), 1))
    return hits, scanned, rejected


def _strides(items, workers: int) -> list:
    """The int shard items dealt round-robin into W = min(workers, len(items))
    strides, one per shard."""
    W = min(workers, len(items))
    return [items[i::W] for i in range(W)]


class WorkerDied(RuntimeError):
    """A pool worker process ended before it sent back a task's result."""


class _Pool:
    """size forked worker processes, or none where os.fork does not exist
    (Windows), as a context manager.  Each worker reads pickled (fn, args)
    tasks from a pipe of its own and answers on another (_serve).

    A worker leaves through os._exit, so it runs none of the parent's exit
    handlers and flushes none of its inherited stdio buffers.  Each worker
    first closes the parent's ends of the pipes of the workers forked before
    it, so every pipe has one reader and one writer: a task pipe reaches EOF
    as soon as the parent closes it, and a result pipe as soon as its worker
    ends.  On leaving, the pool closes its pipe ends, and each idle worker
    reads EOF and exits; when the with block raised, the pool also kills
    every worker, busy or not.  It reaps each one, so none outlives the
    pool."""

    def __init__(self, size: int):
        self.workers: list[tuple] = []  # (pid, task pipe writer, result pipe reader)
        if not hasattr(os, "fork"):
            return
        try:
            for _ in range(size):
                task_r, task_w = os.pipe()
                result_r, result_w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    for fd in (task_r, task_w, result_r, result_w):
                        os.close(fd)
                    raise
                if pid == 0:
                    code = 1
                    try:
                        os.close(task_w)
                        os.close(result_r)
                        for _, tasks, results in self.workers:
                            tasks.close()
                            results.close()
                        _serve(task_r, result_w)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(task_r)
                os.close(result_w)
                self.workers.append((pid, open(task_w, "wb"), open(result_r, "rb")))
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        for pid, tasks, results in self.workers:
            with contextlib.suppress(OSError):  # a dead worker's unsent task
                tasks.close()
            results.close()
            if exc_type is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
        for pid, _, _ in self.workers:
            os.waitpid(pid, 0)
        self.workers = []
        return False

    def run(self, fn, args: list) -> list:
        """fn over args, in order.  Each worker takes one of the last args
        and the calling process runs the rest, always at least the first.
        When the call raises, for a failed first item, a worker's exception,
        a dead worker or an interrupt, it kills and reaps every worker
        first, so no unread result outlives it, and later calls run in
        process.  pickle loads only when a task is sent."""
        workers = self.workers[: max(len(args) - 1, 0)]
        if not workers:
            return [fn(a) for a in args]
        import pickle

        own = len(args) - len(workers)
        try:
            for (pid, tasks, _), a in zip(workers, args[own:]):
                try:
                    pickle.dump((fn, a), tasks)
                    tasks.flush()
                except BrokenPipeError:
                    raise WorkerDied(f"worker {pid} closed its task pipe") from None
            out = [fn(a) for a in args[:own]]
            for pid, _, results in workers:
                try:
                    ok, value = pickle.load(results)
                except (EOFError, pickle.UnpicklingError):
                    raise WorkerDied(f"worker {pid} ended without a result") from None
                if not ok:
                    raise value
                out.append(value)
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return out


def _serve(task_r: int, result_w: int) -> None:
    """A worker's loop: unpickle each (fn, args) task from the task_r pipe
    and write the pickled (True, fn(args)), or (False, exception) when fn
    raised, to the result_w pipe, until task_r reaches EOF."""
    import pickle

    with open(task_r, "rb") as tasks, open(result_w, "wb") as results:
        while True:
            try:
                fn, args = pickle.load(tasks)
            except EOFError:
                return
            try:
                out = pickle.dumps((True, fn(args)))
            except Exception as exc:
                out = pickle.dumps((False, exc))
            results.write(out)
            results.flush()


def worker_pool(workers: int, shape: str, n: int) -> _Pool:
    """The pool that search_sparse(pool=...) shares between the searches of
    shape up to GF(2^n) at this worker count.  Its workers are forked once,
    when it opens, and reaped when it closes.

    The calling process runs one shard of each search, so the pool holds one
    worker fewer than the largest of those searches has shards."""
    return _Pool(min(workers, len(SHAPES[shape](2**n - 1))) - 1)


def _run_shards(fn, shard_args, pool=None):
    """fn over shard_args, in order: the first in the calling process, the
    rest in pool, or in a pool of their own when pool is None."""
    if pool is not None:
        return pool.run(fn, shard_args)
    with _Pool(len(shard_args) - 1) as own:
        return own.run(fn, shard_args)


# ---------------------------------------------------------------------------
# search drivers


def _finalize(
    ctx: FieldCtx,
    shape: str,
    dedupe: str,
    raw: dict[tuple, int],
    scanned: int,
    t0: float,
    notes: tuple[str, ...] = (),
    sieve_rejected: int = 0,
) -> SearchReport:
    """One transform walk per class; raw maps each raw hit to its shard
    weight.  The walk keeps the least transform, the class's canonical, and
    the transforms that are raw hits.  A template member of a 2-to-1 class
    is 2-to-1, so its scaling representative is a raw hit, and the orbit size
    (the template candidates the class explains) is the weight summed over
    the class's distinct raw hits: a class with a stabiliser yields some
    transforms more than once.

    When every raw hit's coefficients are 1 (every quadrinomial search, and
    the qm binomial searches up to the cap, whose raw hits all have
    alpha = 1) the walk is qm_unit_transforms, phi(N) exponent tuples: the
    transforms of such a class whose coefficients are all 1 are its unit
    transforms, so they hold every raw hit of the class and its canonical.
    Any other raw set takes the full qm_transforms walk of N * phi(N)
    transforms."""
    transforms = qm_unit_transforms if all(c == 1 for t in raw for _, c in t) else qm_transforms
    classes: dict[tuple, Hit] = {}
    for t in raw:
        if t not in classes:
            walk = transforms(SparsePoly(ctx, t))
            best = next(walk)
            members = {best} & raw.keys()
            for m in walk:
                if m < best:
                    best = m
                if m in raw:
                    members.add(m)
            size = sum(raw[m] for m in members)
            classes.update(dict.fromkeys(members, Hit(SparsePoly(ctx, best), size)))
    if dedupe == "qm":
        chosen = set(classes.values())
    else:
        chosen = [Hit(SparsePoly(ctx, t), classes[t].orbit_size) for t in raw]
    hits = tuple(sorted(chosen, key=lambda h: h.poly.sort_key()))
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    return SearchReport(ctx, shape, dedupe, hits, scanned, elapsed_ms, notes, sieve_rejected)


def _search(ctx: FieldCtx, shape: str, dedupe: str, long_run: bool, workers: int, pool=None) -> SearchReport:
    """The one search driver.  search_degree5 and search_sparse both call it and
    never each other, so a span around either public function times one search."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {tuple(SHAPES)}")
    if dedupe not in ("qm", "none"):
        raise ValueError(f"dedupe must be 'qm' or 'none', got {dedupe!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cap = SEARCH_LONG_MAX_N if long_run else SEARCH_MAX_N
    if ctx.n > cap:
        hint = "" if long_run else f" (pass the long-run flag for n={SEARCH_LONG_MAX_N})"
        raise ValueError(f"{shape} search capped at n={cap}, got n={ctx.n}{hint}")
    if ctx.n < 3:
        raise ValueError(f"{shape} search needs n >= 3, got n={ctx.n}")
    t0 = time.monotonic()
    items = SHAPES[shape](ctx.order - 1)
    shards = [(ctx.n, ctx.modulus, shape, dedupe, stride) for stride in _strides(items, workers)]
    raw: dict[tuple, int] = {}
    scanned = rejected = 0
    for hits, cnt, rej in _run_shards(_shard, shards, pool):
        raw.update(hits)
        scanned += cnt
        rejected += rej
    notes = ()
    if shape == "degree5" and ctx.n != 3:
        notes = (f"no bundled reference table covers degree5 hits at n={ctx.n}; new data",)
    return _finalize(ctx, shape, dedupe, raw, scanned, t0, notes, rejected)


def search_degree5(ctx: FieldCtx, workers: int = 1, dedupe: str = "none") -> SearchReport:
    """All (a3, a2, a1) whose normalized quintic x^5+a3x^3+a2x^2+a1x is 2-to-1.

    Cost 2^(3n) candidates, the a1 of each (a3, a2) decided together by the
    fiber sieve and its survivors by the early-exit kernel, for
    3 <= n <= SEARCH_MAX_N; the
    n = SEARCH_LONG_MAX_N run goes through search_sparse with long_run=True.
    The raw triple list (dedupe="none") is the reference-table form.
    """
    return _search(ctx, "degree5", dedupe, False, workers)


def search_sparse(
    ctx: FieldCtx,
    shape: str,
    dedupe: str = "qm",
    long_run: bool = False,
    workers: int = 1,
    *,
    pool=None,
) -> SearchReport:
    """Exhaustive search over any shape template in SHAPES.

    degree5: x^5 + a3*x^3 + a2*x^2 + a1*x, n >= 3 (see search_degree5).
    binomial: x^k + alpha*x^l, k > l >= 1, alpha != 0.
    trinomial: x^k + beta*x^l + alpha*x, k > l > 1, alpha, beta != 0.
    quadrinomial: x^k + x^l + x^d + x, k > l > d > 1.
    Candidates equivalent to a linearized polynomial are excluded from the
    binomial and trinomial templates (a linearized map is 2-to-1 exactly when
    its kernel has size 2; the classification sets that trivial class aside):
    for trinomials this means k and l both powers of two, for binomials that
    k/l mod 2^n - 1 is a power of two.  dedupe="qm" reports one
    representative per equivalence class and prunes coefficient orbits during
    enumeration; dedupe="none" is the literal loop.  Every shape runs up to
    n = SEARCH_MAX_N, or SEARCH_LONG_MAX_N with long_run.

    The search splits into min(workers, shard items) shards.  The first runs
    in the calling process and the others in pool, the forked workers that
    worker_pool opens for a run of searches; with pool=None the search
    opens a pool of its own.  A worker that dies raises WorkerDied, and an
    exception a shard raises in a worker is raised here; either way the
    pool's workers are reaped, and later searches on it run in process.
    """
    return _search(ctx, shape, dedupe, long_run, workers, pool)


# ---------------------------------------------------------------------------
# table comparison


@dataclass(frozen=True)
class TableDiff:
    table: str
    aligned: str | None
    missing: tuple[str, ...]
    extra: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def _hit_triples(report: SearchReport) -> set[tuple[int, int, int]]:
    out = set()
    for h in report.hits:
        d = dict(h.poly.terms)
        if d.get(5) != 1:
            raise ValueError(f"hit {h.poly} is not a normalized quintic")
        out.add((d.get(3, 0), d.get(2, 0), d.get(1, 0)))
    return out


def _diff_strings(ctx, missing_triples, extra_triples) -> tuple[tuple[str, ...], tuple[str, ...]]:
    def s(t):
        a3, a2, a1 = t
        return str(SparsePoly.make(ctx, [(5, 1), (3, a3), (2, a2), (1, a1)]))

    return tuple(sorted(map(s, missing_triples))), tuple(sorted(map(s, extra_triples)))


def _compare_table1(report: SearchReport) -> TableDiff:
    ctx = report.ctx
    if ctx.n != 3:
        raise ValueError("table I is GF(2^3) data; run the degree5 search at n=3")
    got = _hit_triples(report)
    candidates = [2] if ctx.modulus == 0b1011 else []  # the class of x first
    for g in ctx.nonzero():
        if g not in candidates and ctx.is_primitive(g):
            candidates.append(g)
    for gamma in candidates:
        expected = table1_triples(ctx, gamma)
        if expected == got:
            return TableDiff("I", f"gamma={fmt_elem(gamma)}", (), ())
    expected = table1_triples(ctx, candidates[0])
    missing, extra = _diff_strings(ctx, expected - got, got - expected)
    return TableDiff("I", None, missing, extra)


def expected_table2_classes(ctx: FieldCtx) -> set[tuple]:
    """Expected trinomial classes at ctx.n: each table row expands over every
    root of its alpha equation, since conjugate parameters form distinct
    equivalence classes."""
    data = table2()
    expected: set[tuple] = set()
    for row in data["rows"]:
        if row["n"] != ctx.n:
            continue
        beta = parse_elem(ctx, row["beta"])
        if beta != 1:
            raise ValueError("table II rows are expected to carry beta = 1")
        cond = parse_poly(ctx, row["alpha_roots_of"])
        roots = [a for a in ctx.elements() if cond.eval(a) == 0]
        if not roots:
            raise ValueError(f"no roots of {row['alpha_roots_of']} in {ctx.label()}")
        for a in roots:
            f = SparsePoly.make(ctx, [(row["k"], 1), (row["l"], 1), (1, a)])
            expected.add(qm_canonical(f).terms)
    return expected


def _compare_table2(report: SearchReport) -> TableDiff:
    ctx = report.ctx
    data = table2()
    covered = {row["n"] for row in data["rows"]} | set(data["empty_n"])
    if ctx.n not in covered:
        raise ValueError(f"table II covers n in {sorted(covered)}, got n={ctx.n}")
    expected = expected_table2_classes(ctx)
    got = {h.poly.terms for h in report.hits}
    missing = tuple(sorted(str(SparsePoly(ctx, t)) for t in expected - got))
    extra = tuple(sorted(str(SparsePoly(ctx, t)) for t in got - expected))
    return TableDiff("II", None, missing, extra)


def _compare_table3(report: SearchReport) -> TableDiff:
    ctx = report.ctx
    got = {h.poly.terms for h in report.hits}
    missing = []
    for tag in table3()["families"]:
        if tag not in admissible_family_tags(ctx.n):
            continue
        canon = qm_canonical(make_family(tag, ctx))
        if canon.terms not in got:
            missing.append(f"{tag}: {make_family(tag, ctx)}")
    return TableDiff("III", None, tuple(sorted(missing)), ())


def compare_with_table(report: SearchReport, which: str) -> TableDiff:
    """Empty diff exactly when the report reproduces the reference table.

    Table I: triple-set equality, first literally (modulus 0xb, gamma = the
    class of x), then across every primitive-element relabeling, recording
    the alignment that matched.  Table II: equivalence-class equality, each
    row expanded over all roots of its parameter equation.  Table III:
    membership of every family admissible at the report's n.  The report
    must be the table's search in TABLE_RUNS, so qm hits are canonicals.
    """
    if which not in TABLE_RUNS:
        raise ValueError(f"unknown table {which!r}; expected I, II or III")
    shape, dedupe, _ = TABLE_RUNS[which]
    if (report.shape, report.dedupe) != (shape, dedupe):
        raise ValueError(
            f"table {which} compares {shape} reports with dedupe={dedupe!r}, "
            f"got {report.shape!r} with dedupe={report.dedupe!r}"
        )
    if which == "I":
        return _compare_table1(report)
    if which == "II":
        return _compare_table2(report)
    return _compare_table3(report)


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: SearchReport, include_timing: bool = True) -> dict:
    doc = {
        "kind": "search_report",
        "field": report.ctx.label(),
        "shape": report.shape,
        "dedupe": report.dedupe,
        "hits": [
            {"poly": str(h.poly), "orbit_size": h.orbit_size} for h in report.hits
        ],
        "scanned": report.candidates_scanned,
    }
    if include_timing:  # run statistics, never in tables documents
        doc["elapsed_ms"] = report.elapsed_ms
        doc["sieve_rejected"] = report.sieve_rejected
    if report.notes:
        doc["notes"] = list(report.notes)
    return doc


def report_to_json(report: SearchReport, include_timing: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_timing), indent=2) + "\n"


def report_from_json(text: str) -> SearchReport:
    doc = json.loads(text)
    if doc.get("kind") != "search_report":
        raise ValueError("not a search report document")
    ctx = field_from_label(doc["field"])
    hits = tuple(
        Hit(parse_poly(ctx, h["poly"]), int(h["orbit_size"])) for h in doc["hits"]
    )
    return SearchReport(
        ctx,
        doc["shape"],
        doc["dedupe"],
        hits,
        int(doc["scanned"]),
        int(doc.get("elapsed_ms", 0)),
        tuple(doc.get("notes", ())),
        int(doc.get("sieve_rejected", 0)),
    )


def report_to_csv(report: SearchReport) -> str:
    lines = ["poly,orbit_size"]
    lines.extend(f"{h.poly},{h.orbit_size}" for h in report.hits)
    return "\n".join(lines) + "\n"


def diff_to_dict(diff: TableDiff) -> dict:
    return {
        "table": diff.table,
        "aligned": diff.aligned,
        "missing": list(diff.missing),
        "extra": list(diff.extra),
        "ok": diff.ok,
    }
