package s3

// Public API for the reproduction's extensions: the alternative
// distortion models and spatially extended voting the paper's conclusion
// proposes as future work, exact/approximate k-NN on the same structure,
// the VA-file sequential baseline, and index merging.

import (
	"s3cbcd/internal/core"
	"s3cbcd/internal/distortion"
	"s3cbcd/internal/store"
	"s3cbcd/internal/vafile"
)

// Alternative distortion models (all satisfy Model and keep the
// independence assumption the index requires).
type (
	// IsoLaplace is a heavy-tailed single-scale Laplace model.
	IsoLaplace = core.IsoLaplace
	// IsoStudentT is a scaled Student-t model with Nu degrees of freedom.
	IsoStudentT = core.IsoStudentT
	// MixtureNormal is a two-component core+outlier normal mixture.
	MixtureNormal = core.MixtureNormal
	// Empirical is a nonparametric kernel-smoothed CDF model.
	Empirical = core.Empirical
	// KNNStats reports the work of a k-NN search.
	KNNStats = core.KNNStats
	// VAFileStats reports the filtering effectiveness of a VA-file query.
	VAFileStats = vafile.Stats
)

// FitMixtureNormal fits the two-component mixture to pooled distortion
// samples (see CollectDistortionSamples) by EM.
func FitMixtureNormal(dims int, samples []float64) (MixtureNormal, error) {
	return core.FitMixtureNormal(dims, samples)
}

// FitEmpirical builds a nonparametric distortion model from pooled
// samples.
func FitEmpirical(dims int, samples []float64) (Empirical, error) {
	return core.FitEmpirical(dims, samples)
}

// CollectDistortionSamples measures a transformation on sample videos
// with a simulated perfect detector and returns every per-component
// distortion value, pooled — the input for FitMixtureNormal and
// FitEmpirical.
func CollectDistortionSamples(samples []*Video, tf Transform, cfg ExtractConfig) []float64 {
	return distortion.PooledDeltas(distortion.CollectPairs(samples, tf, cfg))
}

// KNNSearch returns the k nearest stored fingerprints by L2 distance,
// closest first. maxLeaves <= 0 gives the exact best-first search;
// maxLeaves > 0 stops early after refining that many leaf blocks (the
// approximate early-stopping variant). The paper argues k-NN is the wrong
// query type for copy detection (see cmd/s3bench -exp knn); it is exposed
// for other applications of the index.
func (x *Index) KNNSearch(q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	return x.ix.SearchKNN(q, k, maxLeaves)
}

// KNNProbStats reports a probabilistic k-NN traversal.
type KNNProbStats = core.KNNProbStats

// KNNSearchProb is the probabilistically-controlled approximate k-NN of
// the paper's related work ([16], [17]): blocks are visited in decreasing
// model mass until the visited region carries >= confidence, so each true
// relevant neighbor is reported with at least that probability.
func (x *Index) KNNSearchProb(q []byte, k int, confidence float64, m Model) ([]Match, KNNProbStats, error) {
	return x.ix.SearchKNNProb(q, k, confidence, m)
}

// VAFile is the vector-approximation file of Weber & Blott, the improved
// sequential baseline of the paper's related work.
type VAFile struct {
	ix *vafile.Index
}

// NewVAFile builds a VA-file over the index's database with the given
// bits per dimension (1, 2, 4 or 8).
func NewVAFile(x *Index, bits int) (*VAFile, error) {
	ix, err := vafile.Build(x.db, bits)
	if err != nil {
		return nil, err
	}
	return &VAFile{ix: ix}, nil
}

// RangeSearch returns every record within L2 distance eps of q, scanning
// the approximation file and verifying surviving candidates.
func (v *VAFile) RangeSearch(q []byte, eps float64) ([]Match, VAFileStats, error) {
	return v.ix.RangeQuery(q, eps)
}

// MergeIndexes combines two indexes over the same geometry into one, with
// a linear merge of their curve-ordered records. depth <= 0 selects the
// default heuristic for the combined size. The merged index inherits a's
// worker bound.
func MergeIndexes(a, b *Index, depth int) (*Index, error) {
	db, err := store.Merge(a.db, b.db)
	if err != nil {
		return nil, err
	}
	return newIndex(db, IndexOptions{Depth: depth, Workers: a.eng.Workers()})
}

// FilterIndex returns a new index containing only the records the
// predicate keeps — the withdrawal path for removing content from a
// static archive. depth <= 0 selects the default heuristic. The filtered
// index inherits x's worker bound.
func FilterIndex(x *Index, keep func(id, tc uint32) bool, depth int) (*Index, error) {
	db := store.Filter(x.db, keep)
	return newIndex(db, IndexOptions{Depth: depth, Workers: x.eng.Workers()})
}
