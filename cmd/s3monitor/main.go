// Command s3monitor reproduces the TV monitoring deployment of Section
// V-D: it synthesizes a continuous channel stream with copies of
// referenced videos embedded at random positions among unrelated filler,
// monitors it incrementally with a sliding decision window (the frames
// are fed second by second, as a capture card would deliver them), and
// reports the detections together with the monitoring speed relative to
// real time and the per-window decision latency percentiles.
//
// Usage:
//
//	s3monitor -db archive.s3db -minutes 2 -copies 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	s3 "s3cbcd"
	"s3cbcd/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("s3monitor: ")
	var (
		dbPath  = flag.String("db", "archive.s3db", "database file from s3index")
		minutes = flag.Float64("minutes", 1, "stream length in minutes (25 fps)")
		copies  = flag.Int("copies", 3, "number of embedded copies")
		videos  = flag.Int("corpus-videos", 12, "reference corpus size (must match s3index)")
		frames  = flag.Int("frames", 250, "frames per reference video (must match s3index)")
		seed    = flag.Int64("corpus-seed", 1, "corpus seed (must match s3index)")
		alpha   = flag.Float64("alpha", 0.80, "statistical query expectation")
		sigma   = flag.Float64("sigma", 20, "distortion model sigma")

		planCache = flag.Bool("plan-cache", true,
			"cache filtering-step plans across the stream's repeated fingerprints (answers are identical)")
		traceSlowest = flag.Bool("trace-slowest", false,
			"trace every decision window and print the slowest window's span tree")
	)
	flag.Parse()

	det, err := s3.OpenDetector(*dbPath, s3.CBCDConfig{Alpha: *alpha, Sigma: *sigma})
	if err != nil {
		log.Fatal(err)
	}
	if *planCache {
		det.Engine().EnablePlanCache()
	}
	thr, err := s3.CalibrateThreshold(det, []*s3.Video{
		s3.GenerateVideo(987101, 250), s3.GenerateVideo(987102, 250),
	})
	if err != nil {
		log.Fatal(err)
	}
	det.SetVoteThreshold(thr + thr/2)
	fmt.Printf("database: %d fingerprints; vote threshold %d\n",
		det.Index().DB().Len(), thr+thr/2)

	// Synthesize the channel: filler with *copies* embedded excerpts.
	const fps = 25
	total := int(*minutes * 60 * fps)
	r := rand.New(rand.NewSource(*seed ^ 0xCAFE))
	stream := &s3.Video{FPS: fps}
	type truth struct {
		id        int
		at, until int
	}
	var planted []truth
	fillerSeed := int64(31337)
	for stream.Len() < total {
		// A filler segment...
		fill := s3.GenerateVideo(fillerSeed, 150+r.Intn(150))
		fillerSeed++
		stream.Frames = append(stream.Frames, fill.Frames...)
		// ...then possibly a copy.
		if len(planted) < *copies {
			id := 1 + r.Intn(*videos)
			ref := s3.GenerateVideo(*seed+int64(id-1), *frames)
			from := r.Intn(ref.Len() - 150)
			at := stream.Len()
			stream.Frames = append(stream.Frames, ref.Frames[from:from+150]...)
			planted = append(planted, truth{id: id, at: at, until: stream.Len()})
		}
	}
	fmt.Printf("stream: %d frames (%.1f min); %d planted copies:\n",
		stream.Len(), float64(stream.Len())/fps/60, len(planted))
	for _, p := range planted {
		fmt.Printf("  video %2d at frames [%d,%d)\n", p.id, p.at, p.until)
	}

	// Monitor incrementally: frames arrive in one-second batches, the way
	// a capture pipeline would deliver them, and every decided window's
	// wall time lands in a latency histogram.
	mon, err := s3.NewStreamMonitor(det, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	lat := obs.NewHistogram("window_seconds", "decision window latency", obs.LatencyBuckets())
	mon.WindowLatency = lat
	var slowest obs.TraceReport
	haveSlowest := false
	if *traceSlowest {
		mon.TraceWindows = func(rep obs.TraceReport) {
			if !haveSlowest || rep.TotalMicros > slowest.TotalMicros {
				slowest, haveSlowest = rep, true
			}
		}
	}

	t0 := time.Now()
	var dets []s3.StreamDetection
	for at := 0; at < stream.Len(); at += fps {
		hi := at + fps
		if hi > stream.Len() {
			hi = stream.Len()
		}
		d, err := mon.Feed(stream.Frames[at:hi])
		if err != nil {
			log.Fatal(err)
		}
		dets = append(dets, d...)
	}
	tail, err := mon.Close()
	if err != nil {
		log.Fatal(err)
	}
	dets = append(dets, tail...)
	elapsed := time.Since(t0)

	fmt.Printf("\ndetections:\n")
	found := map[int]bool{}
	for _, d := range dets {
		fmt.Printf("  video %2d in window [%d,%d): offset %.1f, %d votes\n",
			d.ID, d.WindowStart, d.WindowEnd, d.Offset, d.Votes)
		for i, p := range planted {
			if int(d.ID) == p.id && int(d.WindowEnd) > p.at && int(d.WindowStart) < p.until {
				found[i] = true
			}
		}
	}
	streamDur := time.Duration(float64(stream.Len()) / fps * float64(time.Second))
	fmt.Printf("\nfound %d/%d planted copies; monitored %.1fs of video in %v (%.1fx real time)\n",
		len(found), len(planted), streamDur.Seconds(), elapsed.Round(time.Millisecond),
		streamDur.Seconds()/elapsed.Seconds())
	if n := lat.Count(); n > 0 {
		fmt.Printf("window latency over %d windows: p50 %s, p90 %s, p99 %s, mean %s\n",
			n, fmtSeconds(lat.Quantile(0.50)), fmtSeconds(lat.Quantile(0.90)),
			fmtSeconds(lat.Quantile(0.99)), fmtSeconds(lat.Sum()/float64(n)))
	}
	if haveSlowest {
		fmt.Printf("\nslowest window trace:\n")
		slowest.WriteTree(os.Stdout)
	}
	if st, ok := det.Engine().PlanCacheStats(); ok {
		total := st.Hits + st.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(st.Hits) / float64(total)
		}
		fmt.Printf("plan cache: %d hits, %d misses (%.1f%% hit rate), %d entries\n",
			st.Hits, st.Misses, 100*rate, st.Entries)
	}
}

// fmtSeconds renders a latency in seconds with duration-style units.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
