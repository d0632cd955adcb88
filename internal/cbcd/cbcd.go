// Package cbcd assembles the complete content-based video copy detection
// system of the paper: fingerprint extraction (Section III) over the S³
// index (Sections II and IV) with the temporal voting strategy (Section
// III) on top. An Indexer turns reference videos into the static
// database; a Detector identifies which referenced sequences a candidate
// clip copies; a Monitor applies the detector continuously to a stream
// with a sliding buffer, as in the TV monitoring deployment of Section
// V-D.
package cbcd

import (
	"context"
	"fmt"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
	"s3cbcd/internal/vidsim"
	"s3cbcd/internal/vote"
)

// Order is the component order: fingerprints are byte-quantized, so the
// grid is [0, 2^8)^D.
const Order = 8

// Config collects the system parameters.
type Config struct {
	// Fingerprint parameterizes extraction. Zero value = defaults.
	Fingerprint fingerprint.Config
	// Depth is the index partition depth p; 0 selects DefaultDepth.
	Depth int
	// Alpha is the statistical query expectation. Default 0.80.
	Alpha float64
	// Sigma is the distortion model parameter (set from the most severe
	// transformation to defend against, Section IV-C). Default 20.
	Sigma float64
	// Vote parameterizes the voting strategy. Zero value = defaults.
	Vote vote.Config
	// Extract overrides the fingerprint extractor; nil selects the
	// paper's local fingerprints (fingerprint.Extract). The global
	// baseline of the local-vs-global motivation experiment plugs in
	// fingerprint.ExtractGlobal here.
	Extract func(*vidsim.Sequence, fingerprint.Config) []fingerprint.Local
	// Workers bounds the number of concurrent statistical queries during
	// detection. 0 or 1 searches serially; the index itself is safe for
	// concurrent queries, so each candidate fingerprint is an independent
	// unit of work.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.80
	}
	if c.Sigma == 0 {
		c.Sigma = 20
	}
	if c.Extract == nil {
		c.Extract = fingerprint.Extract
	}
	return c
}

// DefaultConfig returns the paper's operating point: α = 80%, σ = 20.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("cbcd: alpha %v outside (0,1)", c.Alpha)
	}
	if c.Sigma <= 0 {
		return fmt.Errorf("cbcd: sigma %v <= 0", c.Sigma)
	}
	return nil
}

// Indexer accumulates reference fingerprints and builds the static
// database (insertions happen only before Build, matching the paper's
// static S³ system).
type Indexer struct {
	cfg  Config
	recs []store.Record
}

// NewIndexer returns an empty indexer.
func NewIndexer(cfg Config) *Indexer {
	return &Indexer{cfg: cfg.withDefaults()}
}

// AddSequence extracts the local fingerprints of a reference sequence and
// schedules them under the given video identifier. It returns the number
// of fingerprints added.
func (in *Indexer) AddSequence(id uint32, seq *vidsim.Sequence) int {
	locals := in.cfg.Extract(seq, in.cfg.Fingerprint)
	for _, l := range locals {
		fp := make([]byte, fingerprint.D)
		copy(fp, l.FP[:])
		in.recs = append(in.recs, store.Record{
			FP: fp, ID: id, TC: l.TC,
			X: clampPos(l.X), Y: clampPos(l.Y),
		})
	}
	return len(locals)
}

// AddRecords schedules pre-extracted records (synthetic corpora, bulk
// loads). Records are copied by reference; callers must not mutate them.
func (in *Indexer) AddRecords(recs []store.Record) {
	in.recs = append(in.recs, recs...)
}

// Len returns the number of scheduled fingerprints.
func (in *Indexer) Len() int { return len(in.recs) }

// Build sorts the accumulated fingerprints into the index and returns the
// ready detector.
func (in *Indexer) Build() (*Detector, error) {
	curve, err := hilbert.New(fingerprint.D, Order)
	if err != nil {
		return nil, err
	}
	db, err := store.Build(curve, in.recs)
	if err != nil {
		return nil, err
	}
	return NewDetector(db, in.cfg)
}

// Detector runs copy detection queries against a built database. All
// per-fingerprint statistical queries go through one shared query engine
// (core.Engine), whose worker pool serves the fan-out over a clip's
// fingerprints.
type Detector struct {
	cfg    Config
	index  *core.Index  // nil for live detectors
	engine *core.Engine // nil for live detectors
	search core.Searcher
}

// NewDetector wraps an existing database (e.g. loaded from a file).
func NewDetector(db *store.DB, cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if db.Dims() != fingerprint.D {
		return nil, fmt.Errorf("cbcd: database has %d dims, want %d", db.Dims(), fingerprint.D)
	}
	ix, err := core.NewIndex(db, cfg.Depth)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	eng := core.NewEngine(ix, workers)
	return &Detector{cfg: cfg, index: ix, engine: eng, search: eng}, nil
}

// NewLiveDetector runs copy detection against a live segmented index
// (core.LiveIndex): the same voting pipeline, but reference material can
// be ingested or withdrawn while detection runs. Each SearchLocals batch
// executes against one consistent snapshot of the index.
func NewLiveDetector(li *core.LiveIndex, cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if li.Curve().Dims() != fingerprint.D {
		return nil, fmt.Errorf("cbcd: live index has %d dims, want %d", li.Curve().Dims(), fingerprint.D)
	}
	return &Detector{cfg: cfg, search: li}, nil
}

// Index exposes the underlying S³ index (e.g. for depth tuning). It is
// nil for detectors over a live index.
func (d *Detector) Index() *core.Index { return d.index }

// Engine exposes the detector's query engine (e.g. to share it with a
// serving layer). It is nil for detectors over a live index.
func (d *Detector) Engine() *core.Engine { return d.engine }

// Searcher exposes the query surface detection runs through — the static
// engine or the live index.
func (d *Detector) Searcher() core.Searcher { return d.search }

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// SetVoteThreshold updates the decision threshold n_sim, normally to a
// value obtained from CalibrateThreshold.
func (d *Detector) SetVoteThreshold(v int) { d.cfg.Vote.MinVotes = v }

// Query returns the statistical query the detector issues.
func (d *Detector) Query() core.StatQuery {
	return core.StatQuery{
		Alpha: d.cfg.Alpha,
		Model: core.IsoNormal{D: fingerprint.D, Sigma: d.cfg.Sigma},
	}
}

// SearchLocals runs one statistical query per candidate fingerprint
// through the shared query engine and shapes the results as voting
// candidates. With Config.Workers > 1 the engine pipelines the queries
// across its pool; the result order matches locals either way.
func (d *Detector) SearchLocals(locals []fingerprint.Local) ([]vote.Candidate, error) {
	return d.SearchLocalsCtx(context.Background(), locals)
}

// SearchLocalsCtx is SearchLocals with a caller context: a trace carried
// by ctx (obs.WithTrace) accumulates the batch's work counters.
func (d *Detector) SearchLocalsCtx(ctx context.Context, locals []fingerprint.Local) ([]vote.Candidate, error) {
	queries := make([][]byte, len(locals))
	for i := range locals {
		queries[i] = locals[i].FP[:]
	}
	results, err := d.search.SearchStatBatch(ctx, queries, d.Query())
	if err != nil {
		return nil, err
	}
	cands := make([]vote.Candidate, len(locals))
	for i, l := range locals {
		c := vote.Candidate{TC: l.TC, X: l.X, Y: l.Y}
		for _, m := range results[i] {
			c.Matches = append(c.Matches, vote.Match{ID: m.ID, TC: m.TC, X: m.X, Y: m.Y})
		}
		cands[i] = c
	}
	return cands, nil
}

// DetectClip identifies the referenced sequences the clip copies:
// extraction, per-fingerprint statistical search, then the voting
// decision over the whole clip's buffered results.
func (d *Detector) DetectClip(seq *vidsim.Sequence) ([]vote.Detection, error) {
	return d.DetectClipCtx(context.Background(), seq)
}

// DetectClipCtx is DetectClip with a caller context. A trace carried by
// ctx (obs.WithTrace) records the pipeline's stage wall times — extract,
// search, vote — plus the search work counters, so one traced detection
// shows where a clip's latency went.
func (d *Detector) DetectClipCtx(ctx context.Context, seq *vidsim.Sequence) ([]vote.Detection, error) {
	tr := obs.FromContext(ctx)
	t0 := time.Now()
	locals := d.cfg.Extract(seq, d.cfg.Fingerprint)
	tr.StageSince("extract", t0)
	t1 := time.Now()
	cands, err := d.SearchLocalsCtx(ctx, locals)
	if err != nil {
		return nil, err
	}
	tr.StageSince("search", t1)
	t2 := time.Now()
	dets := vote.Decide(cands, d.cfg.Vote)
	tr.StageSince("vote", t2)
	return dets, nil
}

// ScoreClip is DetectClip without the decision threshold: every candidate
// identifier with its vote count, used for threshold calibration.
func (d *Detector) ScoreClip(seq *vidsim.Sequence) ([]vote.Detection, error) {
	cands, err := d.SearchLocals(d.cfg.Extract(seq, d.cfg.Fingerprint))
	if err != nil {
		return nil, err
	}
	return vote.Score(cands, d.cfg.Vote), nil
}

// CalibrateThreshold sets the decision threshold the way the paper does
// ("less than 1 false alarm per hour"): it scores clips known *not* to be
// referenced and returns one more than the highest vote count any
// identifier achieved, i.e. the smallest threshold with zero false alarms
// on the calibration material.
func CalibrateThreshold(d *Detector, clips []*vidsim.Sequence) (int, error) {
	maxVotes := 0
	for _, clip := range clips {
		scores, err := d.ScoreClip(clip)
		if err != nil {
			return 0, err
		}
		for _, s := range scores {
			if s.Votes > maxVotes {
				maxVotes = s.Votes
			}
		}
	}
	return maxVotes + 1, nil
}

// clampPos quantizes an interest point coordinate into the record's
// uint16 position field.
func clampPos(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v + 0.5)
}
