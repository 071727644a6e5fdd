package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// expectedJSON records, per workload and seed, the check values a correct
// program produces at the workload's standard size: digests and exact
// counts, never timings. Seed 1 is the default seed and seed 2 the
// held-out one; every other seed runs unchecked. A change that alters the
// program's outputs on purpose re-records them from a run's "check" lines.
//
//go:embed expected.json
var expectedJSON []byte

// recorded returns the recorded check values of a workload at a seed, or
// nil when the seed has none.
func recorded(workload string, seed int64) map[string]string {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return all[workload][strconv.FormatInt(seed, 10)]
}

// itoa formats a count for a check value.
func itoa[T ~int | ~int64](v T) string { return strconv.FormatInt(int64(v), 10) }
