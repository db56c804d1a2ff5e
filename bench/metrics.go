package main

import (
	"tdfm/internal/experiment"
	"tdfm/internal/faultinject"
	"tdfm/internal/models"
)

// metricDef is one reported metric: its name, unit and which direction
// is better. BENCHMARK.json must list exactly these (see spec_test.go).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; what a "row" and the tail are depend on the
// workload — a predicted image and p95 of request latency for the serve
// workloads, a result row of the grid's CSV and its slowest cells for
// grid-fig3 (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"rows_per_s", "rows/s", "higher"},
	{"cpu_ms_per_row", "ms/row", "lower"},
	{"rss_mb", "MiB", "lower"},
}

// Architectures the layer probes build: the ensemble's members plus
// resnet50, the deepest figure model.
var probeArchs = append(models.EnsembleMembers(), models.ResNet50)

// The serve traffic classes the traced run breaks down.
var tracedTraffic = []string{"lone", "bulk"}

// layerMetrics lists every per-layer metric of a traced run, in a fixed
// order.
func layerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, tr := range tracedTraffic {
		add(tr+".serve.handler_ms", "ms", "lower")
		add(tr+".serve.predict_ms", "ms", "lower")
		add(tr+".serve.http_ms", "ms", "lower")
		add(tr+".serve.forward_crit_ms", "ms", "lower")
		add(tr+".serve.fanout_ms", "ms", "lower")
		add(tr+".serve.parallelism", "ratio", "higher")
		for _, m := range models.EnsembleMembers() {
			add(tr+".serve.member_ms."+m, "ms", "lower")
		}
	}
	add("lone.trace.overhead_ms", "ms", "lower")
	add("tensor.pool_hit_ratio", "ratio", "higher")
	add("registry.open_ms", "ms", "lower")
	for _, a := range probeArchs {
		add("nn.fwd_b1_ms."+a, "ms", "lower")
		add("nn.fwd_b32_ms."+a, "ms", "lower")
		add("nn.conv_fwd_b32_ms."+a, "ms", "lower")
		if hasResidual(a) {
			add("nn.residual_fwd_b32_ms."+a, "ms", "lower")
		}
		add("tensor.conv_gflops."+a, "GFLOP/s", "higher")
		add("nn.train_fwd_ms."+a, "ms", "lower")
		add("loss.ms."+a, "ms", "lower")
		add("nn.bwd_ms."+a, "ms", "lower")
		add("opt.step_ms."+a, "ms", "lower")
	}
	add("experiment.cells", "count", "lower")
	add("experiment.cache_hits", "count", "higher")
	for _, t := range experiment.TechniquesFor(faultinject.Mislabel) {
		add("experiment.cell_s."+t, "s", "lower")
	}
	for _, a := range experiment.FigureModels() {
		add("experiment.cell_s."+a, "s", "lower")
	}
	add("experiment.pool_busy_share", "ratio", "higher")
	add("experiment.tail_s", "s", "lower")
	add("datagen.generate_ms", "ms", "lower")
	add("faultinject.inject_ms", "ms", "lower")
	return out
}

func hasResidual(arch string) bool { return arch == models.ResNet18 || arch == models.ResNet50 }

// unitOf returns an end-to-end metric's unit, or "" for an unknown name.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
