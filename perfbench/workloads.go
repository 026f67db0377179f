package main

import (
	"sort"
	"strings"
)

// workloads maps each workload name to its run. Every workload reports
// the same end-to-end metrics (EndToEnd) and per-layer metrics
// (PerLayer); BENCHMARK.json at the repository root records why each
// was chosen. fleet-churn, the only workload that runs internal/cluster,
// is left out of BENCHMARK.json: on a 2-vCPU VM its closed-loop
// throughput spread 0.35 (IQR over median, ten seeds), beyond any
// allowed bound. Run it by name for the cluster per-layer metrics.
var workloads = map[string]func(*env) (result, error){
	"serve-hot":   serveHot,
	"count-cold":  countCold,
	"serve-churn": serveChurn,
	"fleet-churn": fleetChurn,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
