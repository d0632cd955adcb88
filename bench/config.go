package main

import "time"

// Workload names (BENCHMARK.json lists the same four, with why).
const (
	wlResident = "resident_batch"
	wlCold     = "cold_mixed"
	wlFleet    = "fleet_single"
	wlIngest   = "ingest_monitor"
)

var workloadNames = []string{wlResident, wlCold, wlFleet, wlIngest}

// config is the frozen shape of a run. Sizes are identical on every
// commit; only -seconds (the contract's run_seconds) scales the phases.
type config struct {
	Records          int // corpus records
	Preload          int // ingest_monitor: records served at start
	FreshPerClient   int // fresh fingerprints in one client's cycle
	HotSet           int // cold_mixed: looping hot fingerprints
	RetrievalQueries int // fixed set retrieval_rate is counted on
	// Script is the number of requests in each workload's traced script:
	// as many as its request time lets three sequential replays afford.
	Script        map[string]int
	IngestBatches int // ingest batches pre-generated for the writer
	// Setups is the number of timed set-ups per run (setup_s is their
	// median): more where one is short, about three seconds in all.
	Setups      map[string]int
	RangeChecks int // probe range queries checked by brute force
	CacheShare  float64

	Warm, Closed, Paced time.Duration
	IngestPerSec        float64
	// PacedRPS is the open-loop request rate per workload: half the
	// median closed-loop requests/s measured on the seed commit, rounded
	// to two digits, then frozen.
	PacedRPS map[string]float64
}

// windows is the number of consecutive windows each timed phase is cut
// into; every timing metric is the median of its per-window values.
const windows = 5

// fullConfig scales the issue's 3 s / 20 s / 15 s phases to the
// contract's run length: closed and paced share -seconds 4:3 and keep
// five windows each.
func fullConfig(seconds float64) config {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return config{
		Records:          500_000,
		Preload:          200_000,
		FreshPerClient:   8192,
		HotSet:           256,
		RetrievalQueries: 2048,
		Script:           map[string]int{wlResident: 128, wlCold: 64, wlFleet: 512, wlIngest: 128},
		IngestBatches:    640,
		Setups:           map[string]int{wlResident: 5, wlCold: 5, wlFleet: 5, wlIngest: 7},
		RangeChecks:      16,
		CacheShare:       0.10,
		Warm:             d(3.0 / 35),
		Closed:           d(4.0 / 7),
		Paced:            d(3.0 / 7),
		IngestPerSec:     20,
		PacedRPS: map[string]float64{
			wlResident: 69,
			wlCold:     16,
			wlFleet:    570,
			wlIngest:   46,
		},
	}
}

// smokeConfig is the -smoke shape: every workload end to end, answers
// checked, in a few seconds.
func smokeConfig() config {
	c := fullConfig(1.2)
	c.Records, c.Preload = 5000, 2000
	c.FreshPerClient, c.HotSet, c.RetrievalQueries = 1024, 64, 512
	c.IngestBatches, c.RangeChecks = 64, 4
	c.Setups = map[string]int{wlResident: 1, wlCold: 1, wlFleet: 1, wlIngest: 1}
	c.Script = map[string]int{wlResident: 32, wlCold: 32, wlFleet: 32, wlIngest: 32}
	c.Warm = 100 * time.Millisecond
	c.PacedRPS = map[string]float64{wlResident: 40, wlCold: 40, wlFleet: 200, wlIngest: 20}
	return c
}
