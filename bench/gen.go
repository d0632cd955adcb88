package main

// Harness-owned inputs. Everything the program under test ever receives
// — corpus, distorted queries, hot set, range radius, ingest batches —
// is generated here from the seed alone, and request bodies are encoded
// before any timing starts. This file deliberately does not import the
// repository's own corpus generators (internal/experiments): a later
// change to the program cannot change the traffic it is measured on.

import (
	"math/rand"
	"strconv"
)

const (
	dims  = 20 // fingerprint dimension D
	order = 8  // bits per component

	// The paper's query model: a stored fingerprint distorted by
	// isotropic Gaussian noise sigmaQ, searched at expectation alpha
	// under the model sigma.
	sigmaQ = 18.0
	alpha  = 0.8
	sigma  = 18.0
	// rangeEps is the matched-expectation radius
	// s3.MatchedRangeRadius(20, 18, 0.8) = 18*sqrt(chi2inv(0.8, 20)).
	// It is a harness constant so the traffic cannot drift with the
	// library; TestRangeEpsMatchesLibrary pins it to the library's value.
	rangeEps = 90.0675

	batchSize = 32 // fingerprints in one key-frame batch

	// Corpus shape ("ids x time-codes"): recordsPerID consecutive records
	// share a video id with increasing time-codes; every record is a
	// jittered copy of one of records/clusterMean base points, which
	// gives the heavy near-duplication of broadcast archives.
	recordsPerID = 64
	clusterMean  = 128
	baseSpread   = 45.0
	jitter       = 4.0

	ingestBatchRecords = 256 // = 4 whole video ids, so ids never straddle batches
	deleteEvery        = 20  // one DELETE /video/{id} per this many ingest batches
	deleteLag          = 10  // ...of the id first ingested this many batches earlier
)

// record is the harness's own record type (the adapter converts).
type record struct {
	FP     []byte
	ID, TC uint32
}

// query is one distorted fingerprint and the record it was made from.
type query struct {
	FP     []byte
	SrcID  uint32
	SrcTC  uint32
	SrcPos int // index into the corpus
}

type reqKind int

const (
	kindStatBatch reqKind = iota
	kindStatSingle
	kindRange
	kindIngest
	kindDelete
)

func (k reqKind) String() string {
	return [...]string{"stat_batch", "stat_single", "range", "ingest", "delete"}[k]
}

// request is one pre-encoded HTTP request plus what the harness needs
// to check its answer and to replay it straight into the engine.
type request struct {
	Kind    reqKind
	Method  string
	Path    string
	Body    []byte
	Queries []query  // search requests: the fingerprints asked
	Records []record // ingest requests: the records written
	ID      uint32   // delete requests: the video id withdrawn
}

// writeSlot is one tick of the writer's schedule: an ingest batch and,
// every deleteEvery ticks, the delete that follows it on the same
// connection.
type writeSlot struct {
	Ingest request
	Delete *request
}

// weight is the number of fingerprint queries a 2xx answer to r counts
// for in search_qps (a batch counts 32, a range query 1, a write 0).
func (r *request) weight() int { return len(r.Queries) }

// Independent random streams, so that changing how many values one
// consumer draws never shifts another's inputs.
const (
	streamBases = iota + 1
	streamCorpus
	streamIngest
	streamProbe
	streamRetrieval
	streamHot
	streamClient // + client index
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919))
}

func clipByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v + 0.5)
}

// corpus is the reference archive: records[i] for i < preload is also
// the preload of the ingest workload.
type corpus struct {
	bases   [][]byte
	records []record
}

func genBases(seed int64, n int) [][]byte {
	r := newRand(seed, streamBases)
	flat := make([]byte, n*dims)
	bases := make([][]byte, n)
	for i := range bases {
		b := flat[i*dims : (i+1)*dims : (i+1)*dims]
		for j := range b {
			b[j] = clipByte(128 + r.NormFloat64()*baseSpread)
		}
		bases[i] = b
	}
	return bases
}

// genRecords emits n records with ids starting at firstID, each a
// jittered copy of a random base point.
func genRecords(r *rand.Rand, bases [][]byte, n int, firstID uint32) []record {
	flat := make([]byte, n*dims)
	recs := make([]record, n)
	for i := range recs {
		base := bases[r.Intn(len(bases))]
		fp := flat[i*dims : (i+1)*dims : (i+1)*dims]
		for j := range fp {
			fp[j] = clipByte(float64(base[j]) + r.NormFloat64()*jitter)
		}
		recs[i] = record{FP: fp, ID: firstID + uint32(i/recordsPerID), TC: uint32(i%recordsPerID) * 12}
	}
	return recs
}

func genCorpus(seed int64, n int) *corpus {
	nb := n / clusterMean
	if nb < 16 {
		nb = 16
	}
	bases := genBases(seed, nb)
	return &corpus{bases: bases, records: genRecords(newRand(seed, streamCorpus), bases, n, 0)}
}

// genQueries distorts n records drawn uniformly from records[:limit].
func genQueries(r *rand.Rand, c *corpus, limit, n int) []query {
	flat := make([]byte, n*dims)
	qs := make([]query, n)
	for i := range qs {
		pos := r.Intn(limit)
		src := c.records[pos]
		fp := flat[i*dims : (i+1)*dims : (i+1)*dims]
		for j := range fp {
			fp[j] = clipByte(float64(src.FP[j]) + r.NormFloat64()*sigmaQ)
		}
		qs[i] = query{FP: fp, SrcID: src.ID, SrcTC: src.TC, SrcPos: pos}
	}
	return qs
}

func appendFP(b []byte, fp []byte) []byte {
	b = append(b, '[')
	for j, v := range fp {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return append(b, ']')
}

var statSuffix = []byte(`,"alpha":` + strconv.FormatFloat(alpha, 'g', -1, 64) +
	`,"sigma":` + strconv.FormatFloat(sigma, 'g', -1, 64) + `}`)

func statBatchRequest(qs []query) request {
	b := make([]byte, 0, 64+len(qs)*(dims*4+2))
	b = append(b, `{"fingerprints":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFP(b, q.FP)
	}
	b = append(b, ']')
	b = append(b, statSuffix...)
	return request{Kind: kindStatBatch, Method: "POST", Path: "/search/statistical/batch", Body: b, Queries: qs}
}

func statSingleRequest(q query) request {
	b := append([]byte(`{"fingerprint":`), appendFP(nil, q.FP)...)
	b = append(b, statSuffix...)
	return request{Kind: kindStatSingle, Method: "POST", Path: "/search/statistical", Body: b, Queries: []query{q}}
}

func rangeRequest(q query) request {
	b := append([]byte(`{"fingerprint":`), appendFP(nil, q.FP)...)
	b = append(b, `,"epsilon":`...)
	b = strconv.AppendFloat(b, rangeEps, 'g', -1, 64)
	b = append(b, '}')
	return request{Kind: kindRange, Method: "POST", Path: "/search/range", Body: b, Queries: []query{q}}
}

func ingestRequest(recs []record) request {
	b := make([]byte, 0, 32+len(recs)*(dims*4+40))
	b = append(b, `{"records":[`...)
	for i, rec := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"fingerprint":`...)
		b = appendFP(b, rec.FP)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, uint64(rec.ID), 10)
		b = append(b, `,"tc":`...)
		b = strconv.AppendUint(b, uint64(rec.TC), 10)
		b = append(b, '}')
	}
	b = append(b, `]}`...)
	return request{Kind: kindIngest, Method: "POST", Path: "/ingest", Body: b, Records: recs}
}

func deleteRequest(id uint32) request {
	return request{Kind: kindDelete, Method: "DELETE", Path: "/video/" + strconv.FormatUint(uint64(id), 10), ID: id}
}

// batches cuts qs into key-frame batches (a short tail is dropped).
func batches(qs []query) []request {
	out := make([]request, 0, len(qs)/batchSize)
	for i := 0; i+batchSize <= len(qs); i += batchSize {
		out = append(out, statBatchRequest(qs[i:i+batchSize]))
	}
	return out
}

// inputs is everything one workload run sends.
type inputs struct {
	Workload string
	Seed     int64
	Corpus   *corpus
	// Served is how many leading corpus records the topology holds at
	// start (the whole corpus, or the preload for ingest_monitor).
	Served int
	// Clients[c] is client c's request cycle. The cycles are far longer
	// than the plan cache (4096 plans), so "fresh" fingerprints never
	// hit it even when a phase wraps around.
	Clients [][]request
	// Writes is the writer's schedule (ingest_monitor only), one slot
	// per tick of the ingest rate, in due order.
	Writes []writeSlot
	// Probe is the fixed answer-verification set; Retrieval the fixed
	// set retrieval_rate is counted on; Script the traced pass.
	Probe     []request
	Retrieval []request
	Script    []request
}

// genInputs builds the inputs of one workload. freshPerClient is the
// number of fresh fingerprints in each client's cycle; writes is the
// number of ingest batches to schedule.
func genInputs(workload string, seed int64, cfg config) *inputs {
	in := &inputs{Workload: workload, Seed: seed, Corpus: genCorpus(seed, cfg.Records), Served: cfg.Records}
	if workload == wlIngest {
		in.Served = cfg.Preload
	}
	c, limit := in.Corpus, in.Served

	// Probe: 6 batches + 32 singles + 32 range queries = 256 fingerprints,
	// so every search route of every topology is checked.
	pq := genQueries(newRand(seed, streamProbe), c, limit, 256)
	in.Probe = batches(pq[:192])
	for _, q := range pq[192:224] {
		in.Probe = append(in.Probe, statSingleRequest(q))
	}
	for _, q := range pq[224:] {
		in.Probe = append(in.Probe, rangeRequest(q))
	}
	in.Retrieval = batches(genQueries(newRand(seed, streamRetrieval), c, limit, cfg.RetrievalQueries))

	nClients := 2
	if workload == wlIngest {
		nClients = 1
	}
	var hot []query
	if workload == wlCold {
		hot = genQueries(newRand(seed, streamHot), c, limit, cfg.HotSet)
	}
	for cl := 0; cl < nClients; cl++ {
		r := newRand(seed, streamClient+cl)
		fresh := genQueries(r, c, limit, cfg.FreshPerClient)
		var cycle []request
		switch workload {
		case wlResident, wlIngest:
			cycle = batches(fresh)
		case wlFleet:
			cycle = make([]request, len(fresh))
			for i, q := range fresh {
				cycle[i] = statSingleRequest(q)
			}
		case wlCold:
			// Half of every batch comes from the hot set (a looping TV
			// logo); batches alternate with single range queries.
			half := batchSize / 2
			for i := 0; i+half+1 <= len(fresh); i += half + 1 {
				qs := make([]query, 0, batchSize)
				for k := 0; k < half; k++ {
					qs = append(qs, fresh[i+k], hot[r.Intn(len(hot))])
				}
				cycle = append(cycle, statBatchRequest(qs), rangeRequest(fresh[i+half]))
			}
		}
		in.Clients = append(in.Clients, cycle)
	}

	if workload == wlIngest {
		r := newRand(seed, streamIngest)
		firstID := uint32(cfg.Records/recordsPerID + 1)
		idsPerBatch := uint32(ingestBatchRecords / recordsPerID)
		for b := 0; b < cfg.IngestBatches; b++ {
			recs := genRecords(r, c.bases, ingestBatchRecords, firstID+uint32(b)*idsPerBatch)
			slot := writeSlot{Ingest: ingestRequest(recs)}
			if (b+1)%deleteEvery == 0 {
				del := deleteRequest(firstID + uint32(b-deleteLag)*idsPerBatch)
				slot.Delete = &del
			}
			in.Writes = append(in.Writes, slot)
		}
	}

	// The traced script is the head of client 0's cycle; the ingest
	// workload puts one write slot of its schedule after every third read.
	reads, nr, nw := in.Clients[0], 0, 0
	for len(in.Script) < cfg.Script[workload] {
		in.Script = append(in.Script, reads[nr%len(reads)])
		nr++
		if workload == wlIngest && nr%3 == 0 && nw < len(in.Writes) {
			in.Script = append(in.Script, in.Writes[nw].Ingest)
			if d := in.Writes[nw].Delete; d != nil {
				in.Script = append(in.Script, *d)
			}
			nw++
		}
	}
	in.Script = in.Script[:cfg.Script[workload]]
	return in
}
