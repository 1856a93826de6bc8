package main

// layerUnits names every per-layer metric the traced run prints, with
// its unit; BENCHMARK.json lists the same names.
var layerUnits = map[string]string{
	"rng.sample_s":           "s",
	"rng.sample_us":          "us",
	"sparse.gram_s":          "s",
	"sparse.gram_gflops":     "GFLOP/s",
	"mat.mulvec_s":           "s",
	"dist.coll_s":            "s",
	"dist.calls.batch":       "count",
	"dist.calls.vector":      "count",
	"dist.calls.scalar":      "count",
	"dist.calls.bitmap":      "count",
	"dist.calls.f32":         "count",
	"dist.calls.i8":          "count",
	"dist.words":             "count",
	"dist.messages":          "count",
	"solvercore.rounds":      "count",
	"solvercore.iters":       "count",
	"solvercore.round_ms":    "ms",
	"solvercore.residual_s":  "s",
	"perf.model_over_wall":   "ratio",
	"serve.solve_ms_p50":     "ms",
	"serve.queue_ms_p50":     "ms",
	"serve.path_hit_rate":    "ratio",
	"serve.dataset_hit_rate": "ratio",
	"serve.warm_rounds_mean": "count",
	"load.client_ms_p50":     "ms",
	"data.gen_s":             "s",
	"solver.lipschitz_s":     "s",
	"trace.overhead_ratio":   "ratio",
	"solve_s":                "s",
	"speedup_p2":             "ratio",
	"fit_rps":                "1/s",
	"fit_p50_ms":             "ms",
	"fit_p95_ms":             "ms",
	"setup_wall_s":           "s",
	"host.steal_share":       "ratio",
}

// wallClock names the per-layer metrics that are the wall-clock side
// of the end-to-end figures; the plain run prints them too.
var wallClock = []string{"solve_s", "speedup_p2", "fit_rps", "fit_p50_ms", "fit_p95_ms", "setup_wall_s", "host.steal_share"}

// fillUnexercised reports 0 for every per-layer metric a workload does
// not exercise (the serve and load layers on the solve workloads), so
// each traced run prints the whole set.
func fillUnexercised(r *report) {
	for name, unit := range layerUnits {
		if _, ok := r.layer[name]; !ok {
			r.setLayer(name, unit, 0)
		}
	}
}
