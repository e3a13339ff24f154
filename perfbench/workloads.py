"""Fixed workloads of the jbalance benchmark; BENCHMARK.json says why each
was chosen.

A workload is a list of jobs; one job is one ``jbalance.cli.main`` call, and
one pass runs every job of the workload once, in order.  The benchmark's
``--seed`` is passed as the ``--seed`` of every job.  This module uses the
standard library only, so the harness can build job lists without importing
numpy or jbalance.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Option name in a config dict -> CLI flag.  ``cli.load_config`` applies the
# flags as overrides on top of the config file, so the set-up probe can
# resolve a job's configuration exactly as ``cli.main`` does.
_FLAGS = {"problem": "--problem", "k_list": "--k-list", "tol": "--tol",
          "resolution": "--resolution"}

STABILITY_R_VALUES = list(range(1, 41))
_PRESET_FACETS = {"P2-O1-O1": 3, "P2-O1-O2": 3, "P1xP1-O11-O11": 4,
                  "P1xP1-O11-O21": 4, "P1xP1-O11-O31": 4}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``options`` are CLI overrides keyed like the config (``k_list`` is a
    list); ``config`` is written to a file and passed with ``--config``;
    ``levels`` says whether the command builds a Quantisation context per
    level (set-up cost); ``meta`` carries what the checks need to know.
    """

    label: str
    command: str
    options: dict
    config: dict = None
    levels: bool = False
    meta: dict = field(default_factory=dict)

    def config_path(self, work):
        return None if self.config is None else work / "configs" / f"{self.label}.json"

    def out_dir(self, work):
        return work / "out" / self.label

    def argv(self, work, seed):
        argv = [self.command]
        for key, flag in _FLAGS.items():
            if key in self.options:
                val = self.options[key]
                argv += [flag, ",".join(map(str, val)) if key == "k_list" else str(val)]
        path = self.config_path(work)
        if path is not None:
            argv += ["--config", str(path)]
        return argv + ["--seed", str(seed), "--out", str(self.out_dir(work))]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple


def _balance_p2():
    # The preset documents resolution 96 but cli.DEFAULTS["resolution"] = 64
    # overrides it, so the resolution is passed explicitly.  Level k = 2
    # alone keeps a job near a second, so that a run repeats it about 25
    # times (see run.best_job_walls); k = 3, 4 took 7 to 12 s and did not
    # hold a quarter between runs.
    job = Job("balance", "balance",
              {"problem": "P2-O1-O1", "k_list": [2], "tol": 1e-9,
               "resolution": 96}, levels=True)
    return Workload("balance-p2", (job,))


def _flow_p1xp1():
    # start_amplitude 0.05 instead of the CLI's 0.3: at 0.3 the explicit
    # PDE's step count to T = 0.25 ranges from 20.5k to 51.7k over seeds
    # 0..11, so runs with different seeds would measure different work.
    # T = 0.2 and compare_T = 0.05 keep a job near two seconds, so that a
    # run repeats it about 15 times; T = 2.0 and compare_T = 0.25 took 8 to
    # 14 s and did not hold a quarter between runs.
    cfg = json.loads((HERE / "configs" / "flow-p1xp1.json").read_text())
    job = Job("flow", "flow", {"problem": "P1xP1-O11-O21", "k_list": [2, 4]},
              config=cfg, levels=True)
    return Workload("flow-p1xp1", (job,))


def _stability_sweep():
    sweep = {"r_values": STABILITY_R_VALUES}
    jobs = []
    for preset, facets in _PRESET_FACETS.items():
        for facet in range(facets):
            meta = {"polytope": preset.split("-")[0], "facet": facet}
            if preset.startswith("P2-"):
                meta["d"] = int(preset[-1])
            jobs.append(Job(f"{preset}-f{facet}", "stability", {},
                            config={"problem": preset,
                                    "stability": dict(sweep, facet=facet)},
                            meta=meta))
    for d in range(1, 6):
        jobs.append(Job(f"P2-O{d}-custom-f0", "stability", {},
                        config={"problem": {"polytope": "P2", "l2": f"O({d})"},
                                "stability": dict(sweep, facet=0)},
                        meta={"polytope": "P2", "facet": 0, "d": d}))
    return Workload("stability-sweep", tuple(jobs))


WORKLOADS = {w.name: w for w in (_balance_p2(), _flow_p1xp1(), _stability_sweep())}


def distinct_problems(cli, workload, work):
    """Yield (job, cfg) once per distinct problem the jobs build, with cfg
    resolved by ``cli.load_config`` exactly as ``cli.main`` resolves it."""
    seen = set()
    for job in workload.jobs:
        path = job.config_path(work)
        cfg = cli.load_config(str(path) if path else None, job.options)
        key = json.dumps([cfg["problem"], cfg["resolution"], cfg["k_list"], job.levels])
        if key not in seen:
            seen.add(key)
            yield job, cfg


def materialise(workload, work):
    """Write the job configs of ``workload`` under ``work``."""
    (work / "configs").mkdir(parents=True, exist_ok=True)
    for job in workload.jobs:
        path = job.config_path(work)
        if path is not None:
            path.write_text(json.dumps(job.config, indent=1))
