"""
Boundary trends across simulated prediction quality
====================================================

Simulated predictors of increasing accuracy are swept over a realistic
synthetic project.  For each simulated labeling we compute the cost-saving
boundaries, then look at how they move with precision, and render the
scatter-plus-trend figure as SVG.
"""

from defectcost import (
    GridConfig,
    KIND_BY_CODE,
    emit_records,
    project_from_aggregates,
    render_scatter,
    run_grid,
    trend,
)
from defectcost.synthetic import SAMPLE_AGGREGATES

# A synthetic stand-in for a mid-sized project: 577 files, 33 defects,
# defects touching 2.91 files on average.
spec = next(s for s in SAMPLE_AGGREGATES if s.name == "falcon")
project = project_from_aggregates(spec, seed=7)
print(f"simulating on {project.id}: {len(project.artifacts)} files, "
      f"{len(project.defects)} defects")

# Accuracies 0.05..0.95, 25 repetitions each (the default is 100; trimmed
# here so the demo runs in a couple of seconds), perfect and 50%-failing QA.
config = GridConfig(repetitions=25, seed=20240817)
records = run_grid(project, config)
print(f"{len(records)} records")

# How does the lower boundary move with precision for the constant-cost n-m
# model under perfect QA?
kind = KIND_BY_CODE["const-n-m"]
perfect_qa = [r for r in records if r.p_qf == 0.0]
series = trend(perfect_qa, "precision", kind, "lower", n_bins=10)
print("\nmean lower boundary by precision bin (const-n-m, p_qf=0):")
for midpoint, mean, count in series.bins:
    if count:
        print(f"  precision ~{midpoint:.2f}: lower ~{mean:8.2f}  ({count} runs)")
print(f"  ({series.excluded} runs had no fully predicted defect or no precision)")

# The first precision bin where the interval opens up tells how demanding
# cost saving is on this project.
saving = [r for r in perfect_qa if r.kind == kind and r.cost_saving and r.precision is not None]
if saving:
    print(f"\ncheapest cost-saving run: precision {min(r.precision for r in saving):.3f}")

# Render the figures: boundaries against precision and against recall.
for metric in ("precision", "recall"):
    path = f"trend_{metric}.svg"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_scatter(perfect_qa, metric, kind))
    print(f"wrote {path}")

# The raw records round-trip through CSV for downstream analysis.
with open("records.csv", "w", encoding="utf-8") as handle:
    handle.write(emit_records(records))
print("wrote records.csv")
