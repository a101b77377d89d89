"""Measurement and experiment harness.

* :mod:`repro.measure.free` — the ``free(1)`` sampling channel,
* :mod:`repro.measure.experiment` — ``open_run`` (every runner's set-up)
  and deploy-N-pods experiments with both memory channels and the
  startup probe,
* :mod:`repro.measure.recovery`, :mod:`repro.measure.chaos` — recovery
  experiments and the chaos campaign under injected faults,
* :mod:`repro.measure.fleet`, :mod:`repro.measure.zygote` — fleet
  scaling, the locality ablation, cold vs zygote warm starts,
* :mod:`repro.measure.stats` — summary statistics,
* :mod:`repro.measure.figures` — one generator per paper table/figure,
* :mod:`repro.measure.report` — plain-text rendering of figure data,
* :mod:`repro.measure.campaign`, ``series``, ``pool``, ``cache`` — the
  campaign engine.
"""

from repro.measure.experiment import (
    DeploymentMeasurement,
    ExperimentRunner,
    MemorySample,
)
from repro.measure.free import FreeSampler
from repro.measure.recovery import (
    BackoffEvent,
    RecoveryMeasurement,
    render_recovery,
    run_recovery,
)
from repro.measure.stats import mean, stddev, summarize
from repro.measure.figures import (
    FigureSeries,
    fig3_crun_memory_metrics,
    fig4_crun_memory_free,
    fig5_runwasi_memory_free,
    fig6_python_memory_metrics,
    fig7_python_memory_free,
    fig8_startup_10,
    fig9_startup_400,
    fig10_overview,
    table1_software_stack,
    table2_experiments_overview,
)

__all__ = [
    "DeploymentMeasurement",
    "ExperimentRunner",
    "MemorySample",
    "FreeSampler",
    "BackoffEvent",
    "RecoveryMeasurement",
    "render_recovery",
    "run_recovery",
    "mean",
    "stddev",
    "summarize",
    "FigureSeries",
    "fig3_crun_memory_metrics",
    "fig4_crun_memory_free",
    "fig5_runwasi_memory_free",
    "fig6_python_memory_metrics",
    "fig7_python_memory_free",
    "fig8_startup_10",
    "fig9_startup_400",
    "fig10_overview",
    "table1_software_stack",
    "table2_experiments_overview",
]
