"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record.py

Writes perfbench/expected/{battery,mesh,cli}.json from the checkout's
``src``: the battery's maps, the mesh's shuffles for the workload seeds
0 .. ReebGraphMesh.RECORDED_SEEDS - 1 and the CLI session's commands.  The
files committed with the benchmark were recorded from the commit that added
it; a later commit that changes outputs on purpose re-records them.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record_battery():
    battery = workloads.DescentBattery()
    out = {}
    for s, f in battery.make_maps(0):
        report = battery._op(s, f).run()
        out[str(s)] = {"power_betti": report["power_betti"], "betti_target": report["betti_target"]}
    return out


def record_mesh():
    mesh = workloads.ReebGraphMesh()
    fixed, shuffled, sliced = {}, {}, {}
    for seed in range(mesh.RECORDED_SEEDS):
        functions = mesh.make_functions(seed)
        for m in mesh.SIZES:
            for kind in mesh.KINDS:
                if kind != "shuffled" and seed:
                    continue
                summary = workloads.graph_summary(mesh._graph_op(seed, m, kind, functions[(m, kind)]).run())
                if kind == "shuffled":
                    shuffled.setdefault(str(seed), {})[f"m{m}"] = summary
                else:
                    fixed[f"m{m}.{kind}"] = summary
        model = mesh._slice_op(seed, functions["slice"]).run()
        sliced[str(seed)] = len(model.map.domain.simplex_set)
        print(f"mesh seed {seed} recorded", file=sys.stderr)
    return {"fixed": fixed, "shuffled": shuffled, "slice": sliced}


def record_cli():
    session = workloads.CliSession()
    workdir = ROOT / ".perfbench" / "work" / "record-cli"
    try:
        state = session.setup(0, workdir)
        out = {}
        for op_id, argv in session.commands(state):
            rc, stdout = workloads.run_cli(argv)
            out[op_id] = {"rc": rc, "stdout_sha256": workloads.sha256(stdout)}
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    jobs = {"cli": record_cli, "mesh": record_mesh, "battery": record_battery}
    for name, job in jobs.items():
        data = job()
        with open(workloads.EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
