// Package s3 is the public API of the Statistical Similarity Search (S³)
// library, a from-scratch reproduction of
//
//	Joly, Buisson, Frélicot — "Statistical similarity search applied to
//	content-based video copy detection", ICDE 2005.
//
// Two levels of API are exposed:
//
//   - The index level: BuildIndex / OpenIndex give a Hilbert-curve ordered
//     fingerprint index answering *statistical queries* — approximate
//     searches that retrieve a region holding probability mass >= α under
//     a distortion model — and exact ε-range queries for comparison.
//     OpenDiskIndex runs batched statistical queries against databases
//     larger than memory (the paper's pseudo-disk strategy).
//
//   - The CBCD level: NewVideoIndexer / NewDetector / NewMonitor assemble
//     the complete content-based video copy detection system (local
//     fingerprints + statistical search + temporal voting).
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of every table and figure of the paper.
package s3

import (
	"context"
	"fmt"

	"s3cbcd/internal/cbcd"
	"s3cbcd/internal/core"
	"s3cbcd/internal/distortion"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/scan"
	"s3cbcd/internal/stat"
	"s3cbcd/internal/store"
	"s3cbcd/internal/vidsim"
	"s3cbcd/internal/vote"
)

// FingerprintDims is the dimension of the paper's video fingerprints.
const FingerprintDims = fingerprint.D

// Core index types.
type (
	// Record is one referenced fingerprint with its video identifier and
	// time code.
	Record = store.Record
	// Match is one query result.
	Match = core.Match
	// Plan is the outcome of a filtering step (selected curve intervals
	// plus diagnostics).
	Plan = core.Plan
	// StatQuery parameterizes a statistical query: expectation α and a
	// distortion model.
	StatQuery = core.StatQuery
	// Model is the distortion model interface (independent components).
	Model = core.Model
	// IsoNormal is the single-σ zero-mean normal model the paper uses in
	// practice.
	IsoNormal = core.IsoNormal
	// DiagNormal is the per-component-σ zero-mean normal model.
	DiagNormal = core.DiagNormal
	// DepthTiming is one entry of a partition-depth sweep (T(p) = T_f+T_r).
	DepthTiming = core.DepthTiming
	// BatchStats reports a pseudo-disk batch execution.
	BatchStats = core.BatchStats
	// PlanCacheStats reports plan-cache effectiveness counters.
	PlanCacheStats = core.PlanCacheStats
)

// CBCD system types.
type (
	// CBCDConfig parameterizes the complete copy-detection system.
	CBCDConfig = cbcd.Config
	// Indexer accumulates reference material and builds a Detector.
	Indexer = cbcd.Indexer
	// Detector identifies which referenced sequences a clip copies.
	Detector = cbcd.Detector
	// Monitor applies a Detector continuously to a stream.
	Monitor = cbcd.Monitor
	// StreamMonitor is the incremental (feed-as-you-capture) monitor.
	StreamMonitor = cbcd.StreamMonitor
	// StreamDetection is a Monitor detection localized in the stream.
	StreamDetection = cbcd.StreamDetection
	// Detection is one identifier that passed the vote.
	Detection = vote.Detection
	// VoteConfig parameterizes the temporal voting strategy.
	VoteConfig = vote.Config
	// ExtractConfig parameterizes fingerprint extraction.
	ExtractConfig = fingerprint.Config
	// Fingerprint is the 20-byte local descriptor.
	Fingerprint = fingerprint.Fingerprint
	// Local is one extracted fingerprint with its position and time code.
	Local = fingerprint.Local
	// Video is a frame sequence.
	Video = vidsim.Sequence
	// Frame is a grayscale image.
	Frame = vidsim.Frame
	// Transform is a video alteration a copy may have undergone.
	Transform = vidsim.Transform
	// DistortionEstimate is a fitted distortion model for one transform.
	DistortionEstimate = distortion.Estimate
)

// IndexOptions tunes BuildIndex.
type IndexOptions struct {
	// Order is the number of bits per fingerprint component (grid side
	// 2^Order). Default 8, matching byte-quantized fingerprints.
	Order int
	// Depth is the curve partition depth p; 0 selects a heuristic that
	// Index.Tune can refine.
	Depth int
	// Workers bounds the goroutines a batch search (SearchStatBatch)
	// spreads its queries over; a single query always runs on its
	// caller's goroutine. 0 selects GOMAXPROCS; 1 is fully sequential.
	Workers int
	// PlanCache enables the engine's bounded plan cache (4096 plans):
	// a repeated query reuses the filtering step's Plan instead of
	// recomputing it. Answers are identical with or without the cache.
	PlanCache bool
}

// Index is the in-memory S³ index. Queries execute through a query
// engine whose answers are byte-identical to the sequential reference
// path at any IndexOptions.Workers.
type Index struct {
	ix  *core.Index
	db  *store.DB
	eng *core.Engine
}

// newIndex wraps a built database in the facade with its query engine.
func newIndex(db *store.DB, opt IndexOptions) (*Index, error) {
	ix, err := core.NewIndex(db, opt.Depth)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngineOpts(ix, core.EngineOptions{Workers: opt.Workers, PlanCache: opt.PlanCache})
	return &Index{ix: ix, db: db, eng: eng}, nil
}

// BuildIndex sorts the records along the Hilbert curve and returns the
// static index. All records must have dims components below 2^Order.
func BuildIndex(dims int, recs []Record, opt IndexOptions) (*Index, error) {
	if opt.Order == 0 {
		opt.Order = 8
	}
	curve, err := hilbert.New(dims, opt.Order)
	if err != nil {
		return nil, err
	}
	db, err := store.Build(curve, recs)
	if err != nil {
		return nil, err
	}
	return newIndex(db, opt)
}

// OpenIndex loads a database file written by Save entirely into memory.
// Every format version opens; a legacy shard manifest (format v3) is
// validated and ignored.
func OpenIndex(path string, depth int) (*Index, error) {
	return OpenIndexOptions(path, IndexOptions{Depth: depth})
}

// OpenIndexOptions is OpenIndex with full engine options.
func OpenIndexOptions(path string, opt IndexOptions) (*Index, error) {
	fl, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	db, err := fl.LoadAll()
	if err != nil {
		return nil, err
	}
	return newIndex(db, opt)
}

// Save writes the index's database to a file with a 2^sectionBits section
// table (12 is a good default; larger values give the pseudo-disk finer
// loading granularity). The file is format v2.
func (x *Index) Save(path string, sectionBits int) error {
	return x.db.WriteFile(path, sectionBits)
}

// Len returns the number of indexed fingerprints.
func (x *Index) Len() int { return x.db.Len() }

// Dims returns the fingerprint dimension.
func (x *Index) Dims() int { return x.db.Dims() }

// Depth returns the current partition depth p.
func (x *Index) Depth() int { return x.ix.Depth() }

// SetDepth changes the partition depth p. It panics outside
// [1, min(K·D, 62)]: 62 is hilbert.MaxDepth, the deepest partition whose
// block indices fit an int.
func (x *Index) SetDepth(p int) { x.ix.SetDepth(p) }

// Engine exposes the index's query engine (e.g. to share it with a
// serving layer).
func (x *Index) Engine() *core.Engine { return x.eng }

// EnablePlanCache turns on the engine's bounded plan cache. Call before
// serving queries. Answers are identical with or without the cache.
func (x *Index) EnablePlanCache() { x.eng.EnablePlanCache() }

// PlanCacheStats reports plan-cache counters; ok is false when the cache
// is disabled.
func (x *Index) PlanCacheStats() (st PlanCacheStats, ok bool) { return x.eng.PlanCacheStats() }

// StatSearch runs a statistical query: it returns every fingerprint in a
// region holding probability mass >= sq.Alpha under sq.Model around q.
func (x *Index) StatSearch(q []byte, sq StatQuery) ([]Match, Plan, error) {
	return x.eng.SearchStat(context.Background(), q, sq)
}

// RangeSearch runs an exact spherical ε-range query.
func (x *Index) RangeSearch(q []byte, eps float64) ([]Match, Plan, error) {
	return x.eng.SearchRange(context.Background(), q, eps)
}

// SearchStatBatch pipelines many statistical queries across the engine's
// worker pool (the batching of eq. 5, executed in parallel). results[i]
// corresponds to queries[i] and is identical to StatSearch's output for
// that query. ctx cancels the batch.
func (x *Index) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	return x.eng.SearchStatBatch(ctx, queries, sq)
}

// ScanSearch runs the sequential-scan ε-range baseline over the same
// database (the reference method of the paper's scalability experiment).
func (x *Index) ScanSearch(q []byte, eps float64) ([]Match, error) {
	return scan.RangeQuery(x.db, q, eps)
}

// Tune learns the fastest partition depth on sample queries and sets it
// (the paper's p_min learning). It returns the sweep for inspection.
func (x *Index) Tune(samples [][]byte, sq StatQuery) ([]DepthTiming, error) {
	return x.ix.TuneDepth(nil, samples, sq)
}

// MatchedRangeRadius returns the ε giving an ε-range query the same
// expectation α as a statistical query under the single-σ model — the
// calibration the paper uses to compare the two query types.
func MatchedRangeRadius(dims int, sigma, alpha float64) float64 {
	return stat.RadiusDist{D: dims, Sigma: sigma}.Quantile(alpha)
}

// LiveOptions tunes a live index (see core.LiveOptions).
type LiveOptions = core.LiveOptions

// LiveStats reports a live index's shape (see core.LiveStats).
type LiveStats = core.LiveStats

// ErrLiveDegraded is returned by live-index writes while persistence is
// failing repeatedly and the index serves read-only (see
// core.ErrDegraded). Queries keep working; the background retry loop
// clears the mode at its first successful commit.
var ErrLiveDegraded = core.ErrDegraded

// ErrLiveClosed is returned by operations on a closed live index.
var ErrLiveClosed = core.ErrClosed

// LiveIndex is the growing variant of the S³ index: an LSM-style
// segmented structure supporting concurrent ingest, per-video deletion
// and query, with background compaction folding sealed segments
// together. Query results are identical — same matches, same order — to
// a monolithic BuildIndex over the surviving records (the property
// internal/core/live_quick_test.go checks).
type LiveIndex struct {
	li *core.LiveIndex
}

// OpenLiveIndex opens (or creates) a live index. dir == "" keeps it
// memory-only; otherwise dir persists segment files plus a crash-safe
// manifest, and reopening recovers the last committed snapshot. dims is
// the fingerprint dimension; order 0 selects 8 bits per component.
func OpenLiveIndex(dims, order int, dir string, opt LiveOptions) (*LiveIndex, error) {
	if order == 0 {
		order = 8
	}
	curve, err := hilbert.New(dims, order)
	if err != nil {
		return nil, err
	}
	li, err := core.OpenLiveIndex(curve, dir, opt)
	if err != nil {
		return nil, err
	}
	return &LiveIndex{li: li}, nil
}

// Core exposes the underlying core.LiveIndex (e.g. to hand to a serving
// layer).
func (x *LiveIndex) Core() *core.LiveIndex { return x.li }

// Ingest adds records; they are searchable on return.
func (x *LiveIndex) Ingest(recs []Record) error { return x.li.Ingest(recs) }

// DeleteVideo withdraws every currently stored record of a video.
func (x *LiveIndex) DeleteVideo(id uint32) error { return x.li.DeleteVideo(id) }

// Flush seals the memtable into the durable committed snapshot.
func (x *LiveIndex) Flush() error { return x.li.Flush() }

// Compact folds all sealed segments (minus tombstones) into one.
func (x *LiveIndex) Compact() error { return x.li.Compact() }

// Close seals pending records, stops background work and rejects
// further writes.
func (x *LiveIndex) Close() error { return x.li.Close() }

// Len returns the number of query-visible fingerprints.
func (x *LiveIndex) Len() int { return x.li.Len() }

// Stats reports the index's segment/memtable shape and counters.
func (x *LiveIndex) Stats() LiveStats { return x.li.Stats() }

// StatSearch runs a statistical query against the current snapshot.
func (x *LiveIndex) StatSearch(q []byte, sq StatQuery) ([]Match, Plan, error) {
	return x.li.SearchStat(context.Background(), q, sq)
}

// RangeSearch runs an exact spherical ε-range query.
func (x *LiveIndex) RangeSearch(q []byte, eps float64) ([]Match, Plan, error) {
	return x.li.SearchRange(context.Background(), q, eps)
}

// SearchStatBatch pipelines many statistical queries, all against one
// consistent snapshot taken at batch start.
func (x *LiveIndex) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	return x.li.SearchStatBatch(ctx, queries, sq)
}

// NewLiveDetector builds a copy detector over a live index: detection
// batches run against consistent snapshots while reference material is
// ingested or withdrawn concurrently.
func NewLiveDetector(x *LiveIndex, cfg CBCDConfig) (*Detector, error) {
	return cbcd.NewLiveDetector(x.li, cfg)
}

// DiskIndex answers batched statistical queries against a database file
// too large for memory (the pseudo-disk strategy).
type DiskIndex struct {
	di   *core.DiskIndex
	file *store.File
}

// OpenDiskIndex opens a database file for batched searching. depth <= 0
// selects the default heuristic.
func OpenDiskIndex(path string, depth int) (*DiskIndex, error) {
	fl, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	di, err := core.NewDiskIndex(fl, depth)
	if err != nil {
		fl.Close()
		return nil, err
	}
	return &DiskIndex{di: di, file: fl}, nil
}

// Close releases the underlying file.
func (d *DiskIndex) Close() error { return d.file.Close() }

// Count returns the number of records in the file.
func (d *DiskIndex) Count() int { return d.file.Count() }

// SearchBatch filters all queries first, then loads the database in curve
// sections sized to budgetRecords resident records, refining every query
// against each section (eq. 5 of the paper).
func (d *DiskIndex) SearchBatch(queries [][]byte, sq StatQuery, budgetRecords int) ([][]Match, BatchStats, error) {
	return d.di.SearchStatBatch(queries, sq, budgetRecords)
}

// NewVideoIndexer returns an indexer for the complete CBCD system.
func NewVideoIndexer(cfg CBCDConfig) *Indexer { return cbcd.NewIndexer(cfg) }

// NewDetector builds a detector over an index previously built or loaded
// at the s3 level. The index dimension must be FingerprintDims.
func NewDetector(x *Index, cfg CBCDConfig) (*Detector, error) {
	if x.Dims() != FingerprintDims {
		return nil, fmt.Errorf("s3: detector needs %d-dimensional fingerprints, index has %d",
			FingerprintDims, x.Dims())
	}
	return cbcd.NewDetector(x.db, cfg)
}

// NewMonitor wraps a detector for continuous stream monitoring.
func NewMonitor(det *Detector) *Monitor { return cbcd.NewMonitor(det) }

// NewStreamMonitor wraps a detector for incremental live monitoring:
// frames are fed as they arrive, detections are returned as decision
// windows complete, and memory stays bounded to one window. window and
// hop of 0 select the defaults (250 and 125 frames).
func NewStreamMonitor(det *Detector, window, hop int) (*StreamMonitor, error) {
	return cbcd.NewStreamMonitor(det, window, hop)
}

// SaveDetectorDB writes the detector's reference database to an S3DB
// file with a 2^sectionBits section table.
func SaveDetectorDB(det *Detector, path string, sectionBits int) error {
	return det.Index().DB().WriteFile(path, sectionBits)
}

// OpenDetector loads a reference database file and wraps it in a
// detector with the given configuration.
func OpenDetector(path string, cfg CBCDConfig) (*Detector, error) {
	db, err := store.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return cbcd.NewDetector(db, cfg)
}

// CalibrateThreshold returns the smallest vote threshold with zero false
// alarms on clips known not to be referenced.
func CalibrateThreshold(det *Detector, clean []*Video) (int, error) {
	return cbcd.CalibrateThreshold(det, clean)
}

// ExtractFingerprints runs the paper's extraction pipeline (key-frames,
// Harris points, differential description) on a video.
func ExtractFingerprints(v *Video, cfg ExtractConfig) []Local {
	return fingerprint.Extract(v, cfg)
}

// EstimateDistortion fits the distortion model of a transformation on
// sample videos with a simulated perfect detector (Section IV-C): the
// returned estimate's Sigma is both the model parameter and the paper's
// transformation severity criterion.
func EstimateDistortion(samples []*Video, tf Transform, cfg ExtractConfig) (DistortionEstimate, error) {
	return distortion.EstimateModel(samples, tf, cfg)
}

// GenerateVideo procedurally generates test video (the reproduction's
// stand-in for the paper's TV archive; see DESIGN.md §5).
func GenerateVideo(seed int64, frames int) *Video {
	return vidsim.Generate(vidsim.DefaultConfig(seed), frames)
}
