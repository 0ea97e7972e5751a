"""The three benchmark workloads: inputs, ops and output checks.

Each op is one call into the package's public API, made from outside the
package.  ``run`` performs the call and returns what the check needs;
``check`` returns None when the output is right and a message otherwise.
Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
import random
from fractions import Fraction
from pathlib import Path

from reebforge import cli, complexes, fiberprod, fixtures, reeb

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"


def load_expected(name):
    path = EXPECTED_DIR / f"{name}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Op:
    __slots__ = ("id", "run", "check")

    def __init__(self, op_id, run, check):
        self.id = op_id
        self.run = run
        self.check = check


def same_as_before(seen, key, value):
    """True when ``value`` equals the first value recorded under ``key``."""
    return seen.setdefault(key, value) == value


def alternating(counts):
    return sum((-1) ** d * n for d, n in enumerate(counts))


# ---------------------------------------------------------------- battery


class DescentBattery:
    """descent_check(random_map(s), target="image", p_max=2) per map.

    The maps are those of seeds 0..49, the battery of acceptance criterion 4,
    walked cyclically from the workload seed.  The totals of ten random
    50-map windows of other seeds have a quartile spread of about 27% of
    their median (the per-map cost is heavy tailed), which no bound of this
    benchmark could absorb, so the seed chooses the starting map and the
    order, not the set.
    """

    name = "descent_battery"
    nominal_batch_s = 33.0
    POOL = 50

    def __init__(self):
        self.expected = load_expected("battery")

    def setup(self, seed, workdir):
        return {"seed": seed, "maps": self.make_maps(seed)}

    def make_maps(self, seed):
        order = [(seed + i) % self.POOL for i in range(self.POOL)]
        return [(s, fixtures.random_map(s)) for s in order]

    def refresh(self, state):
        return {"seed": state["seed"], "maps": self.make_maps(state["seed"])}

    def ops(self, state):
        return [self._op(s, f) for s, f in state["maps"]]

    def reject_ops(self, state):
        return []

    def _op(self, s, f):
        def run():
            return fiberprod.descent_check(f, target="image", p_max=2, threads=1)

        def check(report):
            if not report["ok"] or not all(r["inequality_holds"] for r in report["rows"]):
                return "descent inequality fails"
            for p, numbers in enumerate(report["power_betti"]):
                if alternating(numbers) != power_euler(f, p):
                    return f"Betti numbers of fiber power {p} contradict its Euler characteristic"
            image = {f.image_simplex(x) for x in f.domain.simplices}
            if alternating(report["betti_target"]) != sum((-1) ** (len(t) - 1) for t in image):
                return "image Betti numbers contradict its Euler characteristic"
            want = self.expected.get(str(s))
            if want is None:
                return "no recorded output"
            if (
                report["power_betti"] != want["power_betti"]
                or report["betti_target"] != want["betti_target"]
            ):
                return "Betti numbers differ from the recorded ones"
            return None

        return Op(f"descent.seed{s}", run, check)


def power_euler(f, p):
    """Euler characteristic of the (p+1)-fold fiber power, from the input.

    Tuples of simplices with one exact image tau are the cells, of dimension
    sum(dim rho_i) - p*dim(tau); summing signs factorizes per tau.
    """
    per_tau = {}
    for s in f.domain.simplices:
        tau = f.image_simplex(s)
        per_tau[tau] = per_tau.get(tau, 0) + (-1) ** (len(s) - 1)
    return sum((-1) ** (p * (len(t) - 1)) * v ** (p + 1) for t, v in per_tau.items())


# ------------------------------------------------------------------- mesh


class ReebGraphMesh:
    """reeb_graph on grid tori with three vertex-value orders, plus one slice.

    Shuffled distinct values give m*m levels with fragmented level sets;
    row-major distinct values give m*m levels with few components each; the
    row index gives m levels and so bypasses the per-level rescan.

    The shuffles come from the workload seed modulo RECORDED_SEEDS, the
    number of shuffles whose outputs are recorded in expected/mesh.json, so
    every run checks every graph against a record.
    """

    name = "reeb_graph_mesh"
    nominal_batch_s = 24.0
    # Dense in m so that the median and tail ops are each among many ops of
    # similar cost; single ops on a shared machine swing by up to 2x.
    SIZES = (6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20)
    KINDS = ("shuffled", "rowmajor", "rowindex")
    SLICE_SIZE = 10
    RECORDED_SEEDS = 20

    def __init__(self):
        self.expected = load_expected("mesh")
        self.seen = {}

    def setup(self, seed, workdir):
        seed %= self.RECORDED_SEEDS
        return {"seed": seed, "functions": self.make_functions(seed)}

    def refresh(self, state):
        return {"seed": state["seed"], "functions": self.make_functions(state["seed"])}

    @staticmethod
    def values(seed, m, kind):
        if kind == "shuffled":
            vals = list(range(m * m))
            random.Random(f"reeb_graph_mesh:{seed}:{m}").shuffle(vals)
            return vals
        if kind == "rowmajor":
            return list(range(m * m))
        return [v // m for v in range(m * m)]

    def make_functions(self, seed):
        out = {}
        for m in self.SIZES:
            for kind in self.KINDS:
                torus = fixtures.grid_torus(m, m)
                vals = [Fraction(v) for v in self.values(seed, m, kind)]
                out[(m, kind)] = complexes.PLFunction(torus, vals)
        torus = fixtures.grid_torus(self.SLICE_SIZE, self.SLICE_SIZE)
        vals = [Fraction(v) for v in self.values(seed, self.SLICE_SIZE, "shuffled")]
        out["slice"] = complexes.PLFunction(torus, vals)
        return out

    def ops(self, state):
        ops = []
        for m in self.SIZES:
            for kind in self.KINDS:
                ops.append(self._graph_op(state["seed"], m, kind, state["functions"][(m, kind)]))
            if m == self.SLICE_SIZE:
                ops.append(self._slice_op(state["seed"], state["functions"]["slice"]))
        return ops

    def reject_ops(self, state):
        return []

    def _graph_op(self, seed, m, kind, g):
        op_id = f"reeb_graph.m{m}.{kind}"

        def run():
            return reeb.reeb_graph(g)

        # The quotient of a torus has b0 = 1 and b1 <= 1.  Shuffled values
        # make monkey saddles (three lower-link arcs); one whose branches lie
        # on a single level-set component on each side collapses the loop,
        # so b1 = 0 is right there (seed 9, m = 6: the Reeb space of the
        # sliced map agrees).  Row-major and row-index orders keep the loop.
        allowed = ((1,), (1, 1)) if kind == "shuffled" else ((1, 1),)

        def check(graph):
            if tuple(graph.betti()) not in allowed:
                return f"Betti numbers {tuple(graph.betti())}, expected one of {allowed}"
            n = m * m
            if len(graph.vertex_to_node) != n or any(
                graph.nodes[graph.vertex_to_node[v]].value != g.values[v] for v in range(n)
            ):
                return "vertices are not mapped to nodes at their own value"
            summary = graph_summary(graph)
            if not same_as_before(self.seen, op_id, summary):
                return "output differs between repeats"
            if kind == "shuffled":
                want = self.expected.get("shuffled", {}).get(str(seed), {}).get(f"m{m}")
            else:
                want = self.expected.get("fixed", {}).get(f"m{m}.{kind}")
            if want is None:
                return "no recorded output"
            if summary != want:
                return "nodes or edges differ from the recorded ones"
            return None

        return Op(op_id, run, check)

    def _slice_op(self, seed, g):
        op_id = f"slice.m{self.SLICE_SIZE}.shuffled"
        n = self.SLICE_SIZE**2

        def run():
            return reeb.pl_as_simplicial_map(g)

        def check(model):
            domain = model.map.domain
            out = {
                "simplices": len(domain.simplex_set),
                "euler": alternating(domain.simplex_counts()),
                "codomain_vertices": model.map.codomain.num_vertices,
                "images": sorted(set(model.map.vertex_images)),
            }
            if out["euler"] != 0:
                return f"sliced torus has Euler characteristic {out['euler']}"
            if out["codomain_vertices"] != 2 * n - 1 or out["images"] != list(range(2 * n - 1)):
                return "sliced map does not cover the level path"
            if not same_as_before(self.seen, op_id, out["simplices"]):
                return "output differs between repeats"
            want = self.expected.get("slice", {}).get(str(seed))
            if want is None:
                return "no recorded output"
            if out["simplices"] != want:
                return f"{out['simplices']} simplices, recorded {want}"
            return None

        return Op(op_id, run, check)


def graph_summary(graph):
    nodes = "\n".join(f"{n.id},{n.value},{n.level},{n.component}" for n in graph.nodes)
    edges = "\n".join(f"{a},{b}" for a, b in graph.edges)
    return {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "node_sha256": sha256(nodes),
        "edge_sha256": sha256(edges),
    }


# -------------------------------------------------------------------- cli


def run_cli(argv, env=None):
    """reebforge.cli.main(argv) in process; returns (exit code, stdout).

    An exception other than SystemExit escapes to the caller, which counts
    the op as failed.  SystemExit is how argparse reports a usage error, so
    its code is the command's exit code.
    """
    out = _stdio.StringIO()
    saved = {k: os.environ.get(k) for k in env or {}}
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_stdio.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out.getvalue()


class CliSession:
    """reebforge.cli.main on files written by `fixtures emit` during set-up."""

    name = "cli_session"
    nominal_batch_s = 10.0
    BIG_BOUND = ["bounds", "reeb", "--s", "10", "--d", "10", "--n", "3", "--m", "3"]
    # Values the README and the acceptance criteria state outright.
    KNOWN = {
        "reeb_space.disk": ("betti", [1, 0, 1]),
        "reeb_space.product": ("betti", [1, 0, 2, 0, 1]),
        "bounds.closed": ("value", "28"),
    }

    def __init__(self):
        self.expected = load_expected("cli")
        self.seen = {}

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for argv in (
            ["fixtures", "emit", "disk_collapse", "--param", "n=2"],
            ["fixtures", "emit", "torus_height"],
            ["fixtures", "emit", "product_power", "--param", "n=2", "--param", "k=2"],
        ):
            rc, _ = run_cli(argv + ["-o", str(workdir)])
            if rc != 0:
                raise RuntimeError(f"set-up command {argv} exited {rc}")
        with open(workdir / "product_power.map.json", encoding="utf-8") as fh:
            domain = json.load(fh)["domain"]
        with open(workdir / "product_domain.json", "w", encoding="utf-8") as fh:
            json.dump(domain, fh)
        return {"dir": workdir}

    def refresh(self, state):
        return state

    def commands(self, state):
        d = state["dir"]
        disk = str(d / "disk_collapse.map.json")
        torus = str(d / "torus_height.function.json")
        product = str(d / "product_power.map.json")
        return [
            ("reeb_space.disk", ["reeb", disk, "--space"]),
            ("verify_descent.disk", ["verify", disk, "--descent", "2"]),
            ("verify_descent_reeb.disk", ["verify", disk, "--descent", "2", "--target", "reeb"]),
            ("verify_b1_quotient.disk", ["verify", disk, "--b1", "--quotient"]),
            ("fiber_power_p0.disk", ["fiber-power", disk, "-p", "0"]),
            ("fiber_power_p1.disk", ["fiber-power", disk, "-p", "1"]),
            ("fiber_power_p2.disk", ["fiber-power", disk, "-p", "2"]),
            ("reeb_graph_dot.torus", ["reeb", torus, "--graph", "--dot"]),
            ("reeb_space.torus", ["reeb", torus, "--space"]),
            ("reeb_space.product", ["reeb", product, "--space"]),
            ("betti.product_domain", ["betti", str(d / "product_domain.json")]),
            ("bounds.closed", ["bounds", "closed", "--s", "1", "--d", "2", "--k", "1"]),
            ("bounds.general", ["bounds", "general", "--s", "3", "--d", "4", "--k", "3"]),
            (
                "bounds.sign_components",
                ["bounds", "sign-components", "--s", "3", "--d", "4", "--k", "3"],
            ),
            ("bounds.reeb", self.BIG_BOUND + ["-c", "2"]),
        ]

    def ops(self, state):
        return [self._op(op_id, argv) for op_id, argv in self.commands(state)]

    def _op(self, op_id, argv):
        def run():
            return run_cli(argv)

        def check(result):
            rc, stdout = result
            if op_id in self.KNOWN:
                key, value = self.KNOWN[op_id]
                if rc != 0 or json.loads(stdout).get(key) != value:
                    return f"exit {rc}; expected {key} {value}"
            got = {"rc": rc, "stdout_sha256": sha256(stdout)}
            if not same_as_before(self.seen, op_id, got):
                return "output differs between repeats"
            want = self.expected.get(op_id)
            if want is None:
                return "no recorded output"
            if got != want:
                return f"exit {rc}, output {got['stdout_sha256'][:12]} differ from the record"
            return None

        return Op(op_id, run, check)

    def reject_ops(self, state):
        """Bad input that should end in an exit code, not an exception.

        The bound has 15,553 digits; the README promises its full decimal
        string, so the expected report is built here without str(int).
        """
        disk = str(state["dir"] / "disk_collapse.map.json")
        params = {"c": 5, "d": 10, "m": 3, "n": 3, "s": 10}
        report = {"bound_name": "reeb", "params": params, "value": "1" + "0" * 15552}
        big_report = json.dumps(report, indent=2, sort_keys=True) + "\n"

        def exits_nonzero(result):
            rc, _ = result
            if not isinstance(rc, int) or rc == 0:
                return f"exit code {rc!r}, expected a nonzero exit code"
            return None

        def prints_bound(result):
            rc, stdout = result
            if rc != 0 or stdout != big_report:
                return f"exit code {rc!r}; expected 0 and the full decimal value"
            return None

        cases = [
            ("reject.bounds_reeb_c5", self.BIG_BOUND + ["-c", "5"], None, prints_bound),
            ("reject.p_negative", ["fiber-power", disk, "-p", "-1"], None, exits_nonzero),
            (
                "reject.cell_cap_env",
                ["fiber-power", disk, "-p", "1"],
                {"REEBFORGE_CELL_CAP": "abc"},
                exits_nonzero,
            ),
        ]
        return [
            Op(op_id, lambda argv=argv, env=env: run_cli(argv, env), check)
            for op_id, argv, env, check in cases
        ]


WORKLOADS = {w.name: w for w in (DescentBattery, ReebGraphMesh, CliSession)}
