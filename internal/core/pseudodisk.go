package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/store"
)

// DiskIndex executes statistical queries against a database file that
// does not fit in main memory, implementing the pseudo-disk strategy of
// Section IV-B: N_sig queries are filtered first (pure computation, no
// database access), the Hilbert curve is split into 2^r regular sections
// such that the most filled section fits the memory budget, and the
// sections are then loaded sequentially, each one refining every query
// whose intervals intersect it. The average total response time per query
// follows eq. (5): T_tot = T + T_load/N_sig.
type DiskIndex struct {
	planner
	file    *store.File
	workers int
}

// NewDiskIndex wraps an opened database file. depth <= 0 selects
// DefaultDepth for the file's record count. Batches filter and refine
// with up to GOMAXPROCS workers; SetWorkers adjusts that.
func NewDiskIndex(file *store.File, depth int) (*DiskIndex, error) {
	curve := file.Curve()
	if depth <= 0 {
		depth = DefaultDepth(curve, file.Count())
	}
	if depth > curve.IndexBits() {
		return nil, fmt.Errorf("core: depth %d exceeds index bits %d", depth, curve.IndexBits())
	}
	return &DiskIndex{planner: planner{curve: curve, depth: depth}, file: file,
		workers: runtime.GOMAXPROCS(0)}, nil
}

// SetWorkers bounds the concurrency of batch executions; n <= 1 is fully
// sequential (the seed behavior).
func (di *DiskIndex) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	di.workers = n
}

// File returns the underlying database file.
func (di *DiskIndex) File() *store.File { return di.file }

// BatchStats reports how a batch execution went.
type BatchStats struct {
	// SectionBits is the chosen r: the curve was split in 2^r sections.
	SectionBits int
	// SectionsLoaded counts the sections actually read (sections no query
	// interval touches are skipped).
	SectionsLoaded int
	// RecordsLoaded is the total number of records read from disk.
	RecordsLoaded int
	// MaxResident is the largest section size encountered, i.e. the peak
	// record residency.
	MaxResident int
	// FilterTime, LoadTime and RefineTime decompose the batch wall time.
	FilterTime, LoadTime, RefineTime time.Duration
}

// ChooseSectionBits returns the smallest r such that every curve section
// of a 2^r partition holds at most budget records, capped at the file's
// stored table granularity. If even the finest stored partition exceeds
// the budget, the finest partition is returned (the caller's budget is
// then best-effort, mirroring the paper where r <= p).
func (di *DiskIndex) ChooseSectionBits(budget int) int {
	return di.file.ChooseSectionBits(budget)
}

// SearchStatBatch runs N_sig = len(queries) statistical queries against
// the file within a memory budget of budgetRecords resident records.
// Results are indexed like queries; match positions are global record
// indices.
func (di *DiskIndex) SearchStatBatch(queries [][]byte, sq StatQuery, budgetRecords int) ([][]Match, BatchStats, error) {
	if err := sq.validate(di.dims()); err != nil {
		return nil, BatchStats{}, err
	}
	if budgetRecords < 1 {
		return nil, BatchStats{}, fmt.Errorf("core: memory budget %d records", budgetRecords)
	}
	var stats BatchStats

	// Phase 1: filtering, independent of the database (Section IV-B).
	// Plans are mutually independent, so they fan out across the worker
	// pool, each through the planner's pooled scratch.
	t0 := time.Now()
	plans := make([]Plan, len(queries))
	err := forEach(context.Background(), di.workers, len(queries), func(i int) error {
		ps := di.getScratch()
		defer di.scratch.Put(ps)
		if err := ps.setQuery(queries[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		plans[i] = di.planStatFrontier(ps.qf, sq, ps.mc, ps.fs)
		return nil
	})
	if err != nil {
		return nil, BatchStats{}, err
	}
	stats.FilterTime = time.Since(t0)

	// Phase 2: cyclic section loading + refinement.
	bits := di.ChooseSectionBits(budgetRecords)
	stats.SectionBits = bits
	shift := uint(di.curve.IndexBits() - bits)
	results := make([][]Match, len(queries))
	cursors := make([]int, len(queries))
	for s := 0; s < 1<<uint(bits); s++ {
		lo, hi := di.file.SectionRecordRange(bits, s)
		secStart := bitkey.FromUint64(uint64(s)).Shl(shift)
		secEnd := bitkey.FromUint64(uint64(s) + 1).Shl(shift)

		// Which queries touch this section?
		type touch struct{ q, ivFrom int }
		var touching []touch
		for qi := range queries {
			ivs := plans[qi].Intervals
			c := cursors[qi]
			for c < len(ivs) && ivs[c].End.Cmp(secStart) <= 0 {
				c++
			}
			cursors[qi] = c
			if c < len(ivs) && ivs[c].Start.Less(secEnd) {
				touching = append(touching, touch{q: qi, ivFrom: c})
			}
		}
		if len(touching) == 0 || lo == hi {
			continue
		}

		tl := time.Now()
		chunk, err := di.file.LoadRecords(lo, hi)
		if err != nil {
			return nil, BatchStats{}, err
		}
		stats.LoadTime += time.Since(tl)
		stats.SectionsLoaded++
		stats.RecordsLoaded += chunk.Len()
		if chunk.Len() > stats.MaxResident {
			stats.MaxResident = chunk.Len()
		}

		// Refinement against the resident section fans out across the
		// touching queries: each query's result slice is owned by exactly
		// one task, and sections are processed in curve order, so the
		// per-query match order is identical to the sequential path.
		tr := time.Now()
		err = forEach(context.Background(), di.workers, len(touching), func(ti int) error {
			tc := touching[ti]
			ivs := plans[tc.q].Intervals
			for c := tc.ivFrom; c < len(ivs) && ivs[c].Start.Less(secEnd); c++ {
				clo, chi := chunk.FindInterval(ivs[c])
				for i := clo; i < chi; i++ {
					results[tc.q] = append(results[tc.q], Match{
						Pos: chunk.Base() + i, ID: chunk.ID(i), TC: chunk.TC(i),
						X: chunk.X(i), Y: chunk.Y(i), Dist: -1,
					})
				}
			}
			return nil
		})
		if err != nil {
			return nil, BatchStats{}, err
		}
		stats.RefineTime += time.Since(tr)
	}
	return results, stats, nil
}
