"""What the gapkit benchmark runs, what it checks, and what it reports.

BENCHMARK.json holds only the summary keys of its format; this module is
the full record behind it: every workload with its inputs, jobs
and the reason it was chosen, every tolerance with its reason, the known
defects the baseline shows, and every metric with its unit, direction,
owning module and the end-to-end metric it should move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Environment pins
# ---------------------------------------------------------------------------

# One BLAS thread for every job, on every commit (a 2-vCPU box shared with
# other tenants). With two OpenBLAS threads a job needs both vCPUs at once:
# when the host takes one away the other thread spin-waits (with another
# process busy on the second vCPU, `gap` on lattice:1 [-1500,1500] took 208 s
# instead of 7 s), and over ten seeds, one batch per run, wall_s spread
# 0.25-0.35 of its median on a busy host. One thread leaves each job on one
# vCPU and the runner idle in wait4 on the other. At the Gram order pinned
# below, two threads gained little anyway. The CLI's --threads stays at 1.
BLAS_THREADS = 1

# Written to a key=value file and passed to every job as `--config`.
# sweep_n_max caps the Gram order of the sigma_min sweep (the CLI's default
# is 512). At 512 one certificate on one BLAS thread costs 8-10 s of `eigh`
# (40 complex 512x512 solves) whatever N is, so a run would time a single
# batch, one sample per job. At 256 a solve costs about 1/8 as much, the
# sweep still does 40 full `eigh` solves (what ROADMAP item 2 replaces),
# and every workload fits two or more batches in a run.
CLI_CONFIG = {"sweep_n_max": 256}

# Host-speed probe (run.probe): a fixed mix of interpreter loop, dense
# eigensolves and sorting that the runner times before the first job of a
# batch and after every job. On a shared 2-vCPU host the speed of
# everything drifts by 20-40% over tens of seconds to minutes, alike for
# Python loops and BLAS (block means of the two correlate at 0.95), so ten
# runs of refute_mix on the same code spread by 0.15-0.21 of their median
# in raw wall time. A job's wall time times PROBE_REF_S / (mean of the
# probes on either side of it) is its time at the reference host speed;
# over the same runs that spread 0.06-0.07. PROBE_REF_S is the probe's
# time on that host when quiet; it only sets the scale, and both commits
# use the same value.
PROBE_REF_S = 0.25

# Set-up (materializing every input with `gapkit gen`, one process at a
# time) is repeated this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 3

# A run never outlasts this, whatever --seconds says; a job still running
# when the budget is gone is killed and counted as failed.
RUN_BUDGET_S = 170.0

# ---------------------------------------------------------------------------
# Tolerances, fixed from the estimators' declared accuracy, never from outputs
# ---------------------------------------------------------------------------

# Every level search bisects on a grid of step `resolution` (CLI default
# 1e-3), so a correct estimator may report one grid step below the truth.
GRID_STEP = 1e-3
# Kadec's 1/4 theorem: a lattice of step 1 moved by jitter below 1/4 keeps
# the completeness radius of Z, so c = 1. ROADMAP item 1 accepts estimates
# in [0.9, 1.0]; widened here by one grid step on each side.
KADEC_BAND = (0.9 - GRID_STEP, 1.0 + GRID_STEP)
# d3 accepts a slope a while the residual's fitted slope against log window
# size is at most D3_FLAT_SLOPE = 0.03. A slope mismatch eps adds about
# 2*eps*log(R) to the two-sided residual, so mismatches up to 0.015 pass as
# flat; 0.03 doubles that to cover the O(1) counting discrepancy of a
# perturbed lattice.
D3_SLACK = 0.03
# The same allowance verify_partition_witness uses for count >= c*|I|.
COUNT_SLACK = 1e-9
# fekete_optimize calls a run converged at a projected-gradient residual of
# 1e-8; the energy Hessian on [0, 1] with k = 8 has eigenvalues of order
# k^2 or larger, so positions sit within about 1e-10 of the maximizer. 1e-6
# leaves four orders of margin.
JACOBI_TOL = 1e-6
# Relative slack for values that must agree up to float rounding
# (g = 2*pi*c, regularize max gap, clark deltas).
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    """One file the set-up materializes with `gapkit gen`."""

    name: str
    spec: str
    window: tuple[float, float]


@dataclass(frozen=True)
class Job:
    """One `gapkit` invocation of a batch.

    `group` is the per-command time sum it counts toward (fekete, clark and
    regularize count as "tools"); `check` names the checker routine and
    `params` its known answer. `known_defect` lists the bad outcomes the job
    showed when the benchmark was written ("disagree", "crash"); they are
    reported in the metrics but do not make the run incorrect.
    """

    id: str
    command: str
    input: str | None
    window: tuple[float, float] | None
    extra: tuple = ()
    check: str = ""
    params: dict = field(default_factory=dict)
    oracle: bool = False
    known_defect: tuple = ()

    @property
    def group(self) -> str:
        return self.command if self.command in ("gap", "report", "density") else "tools"


@dataclass(frozen=True)
class Workload:
    why: str
    inputs: tuple
    jobs: tuple


W1500 = (-1500.0, 1500.0)
W5K = (-5000.0, 5000.0)
W15K = (-15000.0, 15000.0)
W30K = (-30000.0, 30000.0)
W_LAC = (-1e6, 1e6)

WORKLOADS = {
    "certify_bisect": Workload(
        why=("every stage of a gap certificate: the Gram sweep (40 eigh solves) "
             "at N = 3001, and partitions and energy at every bisection level "
             "on a lattice (N = 10001), Poisson and lacunary input."),
        inputs=(
            Input("lattice", "lattice:1", W5K),
            Input("perturbed", "perturbed:1,0.2", W1500),
            Input("poisson", "poisson:1", W30K),
            Input("lacunary", "lacunary:2", W_LAC),
        ),
        jobs=(
            # sweep-bound: the Gram sweep is most of the job
            Job("gap_lattice_3k", "gap", "lattice", W1500,
                check="gap", params={"c": 1.0}, oracle=True),
            Job("report_perturbed", "report", "perturbed", W1500,
                check="report", params={"band": KADEC_BAND}, oracle=True,
                known_defect=("disagree",)),
            # bisection-bound: unit intervals at every level, long intervals,
            # and 906 levels without a sweep
            Job("gap_lattice_10k", "gap", "lattice", W5K,
                check="gap", params={"c": 1.0}, oracle=True),
            Job("d1_poisson", "density", "poisson", W30K,
                extra=("--method", "d1"), check="d1"),
            Job("gap_lacunary", "gap", "lacunary", W_LAC,
                check="gap", params={"c": 0.0}, oracle=True),
        ),
    ),
    "refute_mix": Workload(
        why=("density long-family searches, the Fekete ascent, Clark atom sums "
             "and gap filling; partitions, energy and gapnum never run, so "
             "changes there must leave it unchanged."),
        inputs=(
            Input("poisson", "poisson:1", W30K),
            Input("lacunary", "lacunary:2", W_LAC),
            Input("perturbed", "perturbed:1,0.2", W15K),
            Input("lattice", "lattice:1", W1500),
        ),
        jobs=(
            Job("d4_poisson", "density", "poisson", (-10000.0, 10000.0),
                extra=("--method", "d4"), check="d4"),
            Job("d4_lacunary", "density", "lacunary", W_LAC,
                extra=("--method", "d4"), check="d4", params={"value": 0.0},
                oracle=True, known_defect=("disagree",)),
            Job("d3_lacunary", "density", "lacunary", W_LAC,
                extra=("--method", "d3"), check="d3", params={"value": 0.0},
                oracle=True, known_defect=("crash", "disagree")),
            Job("d3_perturbed", "density", "perturbed", W15K,
                extra=("--method", "d3"), check="d3", params={"value": 1.0},
                oracle=True),
            Job("bm_perturbed", "density", "perturbed", W15K,
                extra=("--method", "bm"), check="bm", params={"band": KADEC_BAND},
                oracle=True),
            Job("fekete_8", "fekete", None, None,
                extra=("-k", "8", "--interval", "0,1"), check="fekete",
                params={"k": 8, "interval": (0.0, 1.0)}, oracle=True),
            Job("clark_lattice", "clark", "lattice", W1500,
                check="clark", oracle=True),
            Job("regularize_poisson", "regularize", "poisson", W30K,
                extra=("--C", "4", "--out-prefix", "{prefix}"),
                check="regularize", params={"C": 4.0}, oracle=True),
        ),
    ),
}

GROUPS = ("gap", "report", "density", "tools")


# ---------------------------------------------------------------------------
# Metrics: (name, unit, better, owning module, what it should move)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    owner: str
    moves: str
    bound: float | None = None


END_TO_END = (
    Metric("wall_norm_s", "s", "lower", "all",
           "wall time of the workload's job batch at the reference host speed "
           "(PROBE_REF_S), set-up excluded: the sum over its jobs of each "
           "job's median rescaled wall time over the batches of a run", 0.25),
    Metric("setup_s", "s", "lower", "seqcore",
           "materializing every input with `gapkit gen`, at the reference "
           f"host speed; median of {SETUP_REPEATS} set-ups", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "all",
           "largest peak RSS of any job process (each job's median over "
           "the batches of a run)", 0.1),
    Metric("oracle_agree", "share", "higher", "all",
           "share of jobs with a known answer whose reported value matches it",
           0.05),
)

# Per-layer span metrics: metric stem -> span names (module.function) whose
# self time it sums. A stem names an entry point plus the public helpers only
# it calls. `.calls` counts the first span name only.
SPAN_GROUPS = {
    "seqcore.load_points": ("seqcore.load_points",),
    "partitions.greedy": ("partitions.greedy_density_partition",),
    "partitions.shortness": ("partitions.shortness",),
    "energy.condition_report": ("energy.energy_condition_report",),
    "energy.interval_energy": ("energy.interval_energy",),
    "energy.total_energy": ("energy.total_energy",),
    "gapnum.estimate": ("gapnum.estimate_gap_characteristic",),
    "gapnum.sweep": ("gapnum.sigma_min_sweep", "gapnum.knee_location"),
    "gapnum.gram": ("gapnum.gram_matrix",),
    "density.lower": ("density.density_lower", "density.verify_partition_witness"),
    "density.long_family": ("density.long_family_search",),
    "density.verify_family": ("density.verify_family_witness",),
    "density.d3": ("density.density_d3_estimate", "density.density_d3",
                   "density.d3_residual_curve", "density.match_to_ideal_grid",
                   "density.counting_residual"),
    "density.d4": ("density.d4_complement_estimate", "density.density_upper_d4"),
    "density.bm": ("density.bm_density",),
    "fekete.optimize": ("fekete.fekete_optimize", "fekete.jacobi_zeros"),
    "clarknum.residue_weights": ("clarknum.residue_weights", "clarknum.atom_sum_at",
                                 "clarknum.tail_estimate"),
    "regularize.regularize_gaps": ("regularize.regularize_gaps",),
}

MODULES = ("cli", "seqcore", "partitions", "energy", "gapnum", "density",
           "fekete", "clarknum", "regularize")

_BISECT = "gap_s on certify_bisect (gap_lattice_10k, gap_lacunary)"
_CERT = "gap_s (gap_lattice_3k) and report_s on certify_bisect"
_REFUTE_DENSITY = "density_s on refute_mix"
_TOOLS = "tools_s on refute_mix"

PER_LAYER = (
    Metric("cli.import_s", "s", "lower", "cli",
           "every *_s metric on every workload (one `import gapkit.cli` per job, summed)"),
    Metric("cli.self_s", "s", "lower", "cli",
           "gap_s on certify_bisect (argument parsing, _jsonable, the JSON write)"),
    Metric("cli.output_bytes", "bytes", "lower", "cli", "gap_s on certify_bisect"),
    Metric("seqcore.generate.calls", "count", "lower", "seqcore", "setup_s"),
    Metric("seqcore.generate.self_s", "s", "lower", "seqcore", "setup_s"),
    Metric("seqcore.load_points.self_s", "s", "lower", "seqcore",
           "gap_s and density_s on certify_bisect"),
    Metric("partitions.greedy.calls", "count", "lower", "partitions", _BISECT),
    Metric("partitions.greedy.self_s", "s", "lower", "partitions",
           "gap_s and density_s on certify_bisect"),
    Metric("partitions.greedy.intervals", "count", "lower", "partitions", _BISECT),
    Metric("partitions.greedy.ok_ratio", "share", "higher", "partitions",
           _BISECT + " (base: partitions.greedy.calls)"),
    Metric("partitions.shortness.calls", "count", "lower", "partitions", _BISECT),
    Metric("partitions.shortness.self_s", "s", "lower", "partitions", _BISECT),
    Metric("energy.condition_report.calls", "count", "lower", "energy", _BISECT),
    Metric("energy.condition_report.self_s", "s", "lower", "energy", _BISECT),
    Metric("energy.interval_energy.calls", "count", "lower", "energy", _BISECT),
    Metric("energy.interval_energy.self_s", "s", "lower", "energy", _BISECT),
    Metric("energy.supported_ratio", "share", "higher", "energy",
           _BISECT + " (base: energy.condition_report.calls)"),
    Metric("energy.total_energy.calls", "count", "lower", "energy",
           "report_s on certify_bisect"),
    Metric("energy.total_energy.self_s", "s", "lower", "energy",
           "report_s on certify_bisect"),
    Metric("gapnum.estimate.calls", "count", "lower", "gapnum",
           "gap_s on certify_bisect"),
    Metric("gapnum.estimate.self_s", "s", "lower", "gapnum",
           "gap_s on certify_bisect"),
    Metric("gapnum.levels_per_cert", "count", "lower", "gapnum",
           _BISECT + " (greedy partitions built per certificate)"),
    Metric("gapnum.sweep.self_s", "s", "lower", "gapnum", _CERT),
    Metric("gapnum.gram.calls", "count", "lower", "gapnum", _CERT),
    Metric("gapnum.gram.self_s", "s", "lower", "gapnum", _CERT),
    Metric("gapnum.gram.order", "count", "lower", "gapnum", _CERT + " (largest matrix order)"),
    Metric("density.lower.self_s", "s", "lower", "density",
           "density_s and report_s on certify_bisect"),
    Metric("density.long_family.calls", "count", "lower", "density", _REFUTE_DENSITY),
    Metric("density.long_family.self_s", "s", "lower", "density", _REFUTE_DENSITY),
    Metric("density.verify_family.calls", "count", "lower", "density", _REFUTE_DENSITY),
    Metric("density.verify_family.self_s", "s", "lower", "density", _REFUTE_DENSITY),
    Metric("density.d3.self_s", "s", "lower", "density", _REFUTE_DENSITY),
    Metric("density.d4.self_s", "s", "lower", "density", _REFUTE_DENSITY),
    Metric("density.bm.self_s", "s", "lower", "density",
           _REFUTE_DENSITY + " and report_s on certify_bisect"),
    Metric("fekete.optimize.self_s", "s", "lower", "fekete", _TOOLS),
    Metric("clarknum.residue_weights.self_s", "s", "lower", "clarknum", _TOOLS),
    Metric("regularize.regularize_gaps.self_s", "s", "lower", "regularize", _TOOLS),
) + tuple(
    Metric(f"{m}.self_s", "s", "lower", m,
           f"self time of every {m} span; with cli.import_s these account for "
           "the traced jobs' wall time")
    for m in MODULES if m != "cli"
) + (
    Metric("trace.overhead_s", "s", "lower", "perfbench",
           "traced wall_s minus untraced wall_s of the same run"),
    Metric("trace.unaccounted_s", "s", "lower", "perfbench",
           "traced job wall time not covered by cli.import_s and span self "
           "times (interpreter start, span dump, exit)"),
    Metric("gap_s", "s", "lower", "cli",
           "summed wall time of the batch's gap jobs (reference host speed)"),
    Metric("report_s", "s", "lower", "cli",
           "summed wall time of the batch's report jobs (reference host speed)"),
    Metric("density_s", "s", "lower", "cli",
           "summed wall time of the batch's density jobs (reference host speed)"),
    Metric("tools_s", "s", "lower", "cli",
           "summed wall time of the batch's fekete, clark and regularize jobs "
           "(reference host speed)"),
    Metric("raw.wall_s", "s", "lower", "all",
           "the batch's summed job wall time as measured, not rescaled"),
    Metric("host.probe_s", "s", "lower", "perfbench",
           "median time of the host-speed probe (PROBE_REF_S on a quiet host); "
           "not a property of gapkit"),
    Metric("error_rate", "share", "lower", "all", "failed jobs over attempted jobs"),
)
