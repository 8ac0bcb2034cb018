// Command e2ebench is the end-to-end benchmark of dwqa: it seeds a
// ~100k-passage corpus with cmd/seeder, boots the real `dwqa serve`
// binary over it, drives it over loopback HTTP and checks every answer
// against the generators' truth. Run it through e2ebench/run.sh, which
// builds everything from the enclosing source tree first:
//
//	bash e2ebench/run.sh --workload factoid_cold --seed 1 --seconds 15 --trace 0
//
// A run sets the server up twice (seed + boot, timed; the second one
// serves), warms it up untimed over the workload's whole question
// universe, then measures two phases:
//
//   - open loop: requests at a fixed rate over nproc connections, each
//     latency timed from its due time;
//   - closed loop: nproc clients, each sending when its last reply came.
//
// Feeds (POST /harvest) are spaced through the open loop on
// analytic_feed and run alone after the closed loop elsewhere. The
// report lists every metric with its unit and sample count, the run
// record (host, commit, seed, rate, server flags) and any answer that
// failed the truth check; the last line is the JSON result. With
// --trace 1 the run then replays the open-loop stream in process with a
// span around each layer call (trace.go) and reports the per-layer
// metrics and the wall-clock latencies (see phases.report) instead of
// the bounded end-to-end ones.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a run seeds and boots; setup_s is their
// median, and the last one serves the timed phases.
const setups = 2

func main() {
	root := flag.String("root", ".", "source tree the binaries were built from")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the dwqa, seeder binaries")
	name := flag.String("workload", "", "workload: factoid_cold, mixed_hot or analytic_feed")
	seed := flag.Int64("seed", 1, "workload seed (inputs, corpus grid and request stream)")
	seconds := flag.Int("seconds", 15, "measured seconds per run (open loop 70%, closed loop 30%)")
	trace := flag.Int("trace", 0, "1: also replay the stream in process with per-layer spans and report per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload factoid_cold|mixed_hot|analytic_feed, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, *root, *bin, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints named metrics with unit and sample count and collects
// the ones that go into the JSON line.
type report struct {
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit string, n int, inJSON bool) {
	fmt.Printf("metric %-24s %14.4f %-6s n=%d\n", name, value, unit, n)
	if inJSON {
		r.metrics[name] = metric{Value: value, Unit: unit}
	}
}

func run(ctx context.Context, root, bin string, w workloadSpec, seed int64, seconds time.Duration, traced bool) (*result, error) {
	work := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	conns := runtime.NumCPU()

	fmt.Printf("run: workload=%s seed=%d seconds=%v trace=%v offered_qps=%g conns=%d\n",
		w.name, seed, seconds.Seconds(), traced, w.rate, conns)
	fmt.Printf("why: %s\n", w.why)
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commitID(root))

	su, err := runSetups(ctx, work, bin, seed)
	if su != nil && su.srv != nil {
		defer su.srv.stop()
	}
	if err != nil {
		return nil, err
	}
	tt, srv := su.tt, su.srv

	openPhase := time.Duration(float64(seconds) * 0.7)
	closedPhase := seconds - openPhase
	streamLen := int(w.rate*openPhase.Seconds()) + 20000*int(math.Ceil(closedPhase.Seconds()))
	t := buildTraffic(w, tt.grid, seed, streamLen)
	t0 := time.Now()
	ex := tt.precompute(t)
	fts := tt.feedTruths(t.feeds)
	fmt.Printf("traffic: %d distinct questions, %d feeds; expected tables in %.3fs\n",
		len(t.questions), len(t.feeds), time.Since(t0).Seconds())
	fmt.Printf("server: dwqa %s\n", strings.Join(srv.args, " "))

	c := &client{addr: srv.addr, conns: conns}
	ph, err := measure(ctx, srv, c, t, w, openPhase, closedPhase)
	if err != nil {
		return nil, err
	}
	srv.stop()

	// Judge every reply against the truth.
	var v verdicts
	v.judge(t, tt, ex, fts, ph.sched)
	v.judge(t, tt, ex, fts, ph.closed)
	attempted := len(ph.sched) + len(ph.closed)
	if !w.feedsUnderLoad {
		v.judge(t, tt, ex, fts, ph.feeds)
		attempted += len(ph.feeds)
	}
	for _, n := range v.notes {
		fmt.Println("check:", n)
	}
	for _, n := range v.feedViolations {
		fmt.Println("check: feed:", n)
	}
	fmt.Printf("truth: %d of %d 2xx answers right (%d differ by the known table-page defect), %d failed requests, %d feed violations\n",
		v.asksRight, v.asks2xx, v.knownDefectN, v.failed, len(v.feedViolations))

	rep := &report{metrics: map[string]metric{}}
	closedLat := ph.report(rep, w, &v, attempted, traced)
	closedD := ph.m2.delta(ph.m1)
	residualUS := residual(closedD, closedLat)
	rep.add("setup_s", median(su.setupS), "s", len(su.setupS), !traced)

	// Per-layer metrics from the server's own counters.
	timed := ph.m2.delta(ph.m0)
	hits, misses := timed["dwqa_cache_hits_total"], timed["dwqa_cache_misses_total"]
	rep.add("fail_ratio", ratio(float64(v.failed), float64(attempted)), "ratio", attempted, traced)
	rep.add("engine.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses), traced)
	rep.add("engine.residual_us", residualUS, "us", len(closedLat), traced)
	// Reported but not in BENCHMARK.json: with at most nproc connections
	// against the 64-slot admission gate nothing ever queues, so it
	// reads zero on every run.
	qwSum, qwN := timed["dwqa_gate_queue_wait_seconds_sum"], timed["dwqa_gate_queue_wait_seconds_count"]
	rep.add("engine.gate_wait_us", qwSum*1e6/math.Max(float64(len(ph.sched)+len(ph.closed)), 1), "us", int(qwN), false)
	rep.add("engine.shed_ratio", ratio(timed["dwqa_shed_total"], float64(attempted)), "ratio", attempted, traced)
	rep.add("engine.timeout_ratio", ratio(timed["dwqa_timeouts_total"], float64(attempted)), "ratio", attempted, traced)
	feedD := ph.m3.delta(ph.m0)
	fsSum, fsN := feedD["dwqa_wal_fsync_seconds_sum"], feedD["dwqa_wal_fsync_seconds_count"]
	rep.add("store.fsync_ms", fsSum*1e3/math.Max(fsN, 1), "ms", int(fsN), traced)
	rep.add("seed.ingest_s", median(su.ingestS), "s", len(su.ingestS), traced)
	rep.add("seed.pages_per_s", median(su.pagesPerS), "1/s", len(su.pagesPerS), traced)

	correct := v.correct()
	if traced {
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		// The replay is the open-loop schedule, then the feeds that ran
		// after the closed loop (on workloads without feeds under load).
		replay := ph.sched
		if !w.feedsUnderLoad {
			replay = append(append([]sample(nil), ph.sched...), ph.feeds...)
		}
		trOK, err := tracedReport(ctx, rep, su.dirs[0], t, tt, ex, replay, conns, closedD, residualUS, mean(closedLat)*1e3, filepath.Join(root, spans), spans)
		if err != nil {
			return nil, err
		}
		correct = correct && trOK
	}
	return &result{Correct: correct, Attempted: attempted, Failed: v.failed, Metrics: rep.metrics}, nil
}

// setup is what a run's timed set-ups produced.
type setup struct {
	srv  *server  // serving the timed phases (the last set-up's boot)
	dirs []string // one data directory per set-up
	tt   *truth

	setupS, ingestS, pagesPerS []float64
}

// runSetups seeds a fresh directory and boots the server on it, timed,
// `setups` times. The first directory is kept for the traced replay;
// only the last boot keeps serving. The truth is built from the
// generators between set-ups, before anything is timed.
func runSetups(ctx context.Context, work, bin string, seed int64) (*setup, error) {
	su := &setup{}
	for i := 0; i < setups; i++ {
		dir := filepath.Join(work, fmt.Sprintf("data%d", i))
		su.dirs = append(su.dirs, dir)
		sr, err := seedCorpus(ctx, bin, dir, seed)
		if err != nil {
			return su, err
		}
		s, err := startServer(bin, dir, filepath.Join(work, fmt.Sprintf("serve%d.log", i)))
		if err != nil {
			return su, err
		}
		if i == setups-1 {
			su.srv = s
		} else {
			s.stop()
		}
		ingest := time.Duration(sr.summary.ElapsedNS).Seconds()
		su.setupS = append(su.setupS, sr.wall.Seconds()+s.boot.Seconds())
		su.ingestS = append(su.ingestS, ingest)
		su.pagesPerS = append(su.pagesPerS, float64(sr.summary.PagesSeen)/ingest)
		fmt.Printf("setup %d: seed %.3fs (%d pages, %d passages, ingest %.3fs) boot %.3fs\n",
			i, sr.wall.Seconds(), sr.summary.PagesSeen, sr.summary.Passages, ingest, s.boot.Seconds())
		if su.tt == nil {
			t0 := time.Now()
			if su.tt, err = newTruth(sr.summary.PagesSeen, seed); err != nil {
				return su, err
			}
			fmt.Printf("truth: %d pages, %d weather records, %d sales records in %.3fs\n",
				len(su.tt.grid.pages), len(su.tt.weather), len(su.tt.sales), time.Since(t0).Seconds())
		}
	}
	return su, nil
}

// phases is what the timed phases recorded.
type phases struct {
	sched, closed, feeds []sample
	openPhase            time.Duration // the schedule's length
	closedPhase          time.Duration
	openElapsed          time.Duration
	closedElapsed        time.Duration
	// /metrics before the open loop, after it, after the closed loop,
	// after the feeds.
	m0, m1, m2, m3 metrics
	cpu            time.Duration // server CPU over the open loop
	// Share of the host's CPU time the hypervisor stole during the open
	// loop.
	hostSteal float64
	// Stolen share of the host's CPU time in each window of the open
	// and closed loops (windowed's windows).
	openSteal, closedSteal []float64
	rss                    float64 // server VmHWM, MiB
}

// measure warms the server up, then runs the open loop, the closed
// loop and (unless they ran under load) the feeds.
func measure(ctx context.Context, srv *server, c *client, t *traffic, w workloadSpec, openPhase, closedPhase time.Duration) (*phases, error) {
	scrape := &http.Client{Timeout: 10 * time.Second}
	t0 := time.Now()
	if err := c.warmUp(ctx, t); err != nil {
		return nil, err
	}
	if err := srv.collectGarbage(scrape); err != nil {
		return nil, err
	}
	fmt.Printf("warmup: %d questions via /ask/batch, then a full GC, in %.3fs\n", len(t.questions), time.Since(t0).Seconds())

	// The benchmark's own collector stays off while it measures (a timed
	// run grows its heap by tens of megabytes), so client-side GC pauses
	// never land in the latencies.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ph := &phases{openPhase: openPhase, closedPhase: closedPhase}
	var fc feedCounters
	var err error
	if ph.m0, err = srv.scrape(scrape); err != nil {
		return nil, err
	}
	cpu0, err := srv.procCPU()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	ph.sched = schedule(t, w.rate, openPhase, w.feedsUnderLoad)
	openSteal := watchSteal(openPhase)
	ph.openElapsed = c.openLoop(ctx, t, &fc, ph.sched)
	ph.openSteal = openSteal()
	cpu1, err := srv.procCPU()
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	ph.hostSteal = ratio(steal1-steal0, total1-total0)
	if ph.m1, err = srv.scrape(scrape); err != nil {
		return nil, err
	}
	// Each phase starts right after a full collection of the server's
	// heap, as the open loop does, so that whether one of the server's
	// ~1 GB GC cycles lands inside a phase of a few seconds is the same
	// on every run.
	if err := srv.collectGarbage(scrape); err != nil {
		return nil, err
	}
	closedSteal := watchSteal(closedPhase)
	ph.closed, ph.closedElapsed = c.closedLoop(ctx, t, &fc, len(ph.sched), closedPhase)
	ph.closedSteal = closedSteal()
	if ph.m2, err = srv.scrape(scrape); err != nil {
		return nil, err
	}
	if w.feedsUnderLoad {
		for i := range ph.sched {
			if ph.sched[i].q < 0 {
				ph.feeds = append(ph.feeds, ph.sched[i])
			}
		}
	} else {
		if err := srv.collectGarbage(scrape); err != nil {
			return nil, err
		}
		ph.feeds = c.feedsAlone(ctx, t, &fc)
	}
	if ph.m3, err = srv.scrape(scrape); err != nil {
		return nil, err
	}
	if ph.rss, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	return ph, ctx.Err()
}

// report prints the phases' client-side view and adds the end-to-end
// metrics; it returns the closed-loop latencies (ms) the residual is
// computed from.
//
// Only the metrics that do not depend on how much CPU time the
// hypervisor lets the virtual machine have go into an untraced run's
// JSON: server CPU per request, correctness, recall, memory. The
// wall-clock ones (latency percentiles, throughput, feed latency) go
// into the traced run's JSON, beside the per-layer metrics, which carry
// no bound: on a shared 2-vCPU host, runs fall into stretches of a
// minute or more in which 25-35% of the CPU time is stolen, and those
// runs read 1.5-3x slower in every window, so no statistic of a run
// steadies them across runs (the measured spreads are in CHANGES.md).
func (ph *phases) report(rep *report, w workloadSpec, v *verdicts, attempted int, traced bool) []float64 {
	var askLat, sendLat, late []float64
	openOK := 0
	for i := range ph.sched {
		s := &ph.sched[i]
		late = append(late, ms(s.emitted-s.due))
		if !s.ok() {
			continue
		}
		openOK++
		if s.q >= 0 {
			askLat = append(askLat, ms(s.done-s.due))
			sendLat = append(sendLat, ms(s.done-s.sent))
		}
	}
	var closedLat []float64
	for i := range ph.closed {
		if ph.closed[i].ok() {
			closedLat = append(closedLat, ms(ph.closed[i].done-ph.closed[i].sent))
		}
	}
	var feedLat []float64
	for i := range ph.feeds {
		if ph.feeds[i].ok() {
			feedLat = append(feedLat, ms(ph.feeds[i].done-ph.feeds[i].due))
		}
	}
	// Latency percentiles and throughput are taken per half-second
	// window, and each metric is the windows' lower quartile (upper for
	// throughput): on a shared virtual machine a neighbour's burst stalls
	// every process for milliseconds at a time, for seconds or minutes on
	// end, which measures the neighbour, not the program. A disturbance
	// only ever slows a window, so the best quarter of the windows is the
	// program's own figure as long as a quarter of the run is undisturbed;
	// a slower program slows every window, that quarter included.
	openWin, _ := windowed(ph.sched, ph.openPhase, func(s *sample) time.Duration { return s.due },
		func(s *sample) (float64, bool) { return ms(s.done - s.due), s.q >= 0 })
	closedWin, width := windowed(ph.closed, ph.closedPhase, func(s *sample) time.Duration { return s.done },
		func(s *sample) (float64, bool) { return 0, true })
	var p50s, p90s, qps []float64
	for _, vs := range openWin {
		p50, p90 := math.NaN(), math.NaN() // a window without answers has no percentiles
		if len(vs) > 0 {
			p50, p90 = quantile(vs, 0.5), quantile(vs, 0.9)
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	for _, vs := range closedWin {
		qps = append(qps, float64(len(vs))/width.Seconds())
	}

	fmt.Printf("open loop: %d requests (%d feeds) over %.3fs at %g/s offered; generator lateness p50 %.3fms p99 %.3fms max %.3fms%s; %.1f%% of host CPU stolen\n",
		len(ph.sched), feedsIn(ph.sched), ph.openElapsed.Seconds(), w.rate,
		quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1), lagFlag(late), 100*ph.hostSteal)
	fmt.Printf("open loop /ask latency from due time: p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms (n=%d); from send p50 %.3fms\n",
		quantile(askLat, 0.5), quantile(askLat, 0.9), quantile(askLat, 0.99), quantile(askLat, 1), len(askLat), quantile(sendLat, 0.5))
	fmt.Printf("closed loop: %d requests by %d clients over %.3fs; latency p50 %.3fms p90 %.3fms (n=%d)\n",
		len(ph.closed), runtime.NumCPU(), ph.closedElapsed.Seconds(), quantile(closedLat, 0.5), quantile(closedLat, 0.9), len(closedLat))
	fmt.Printf("windows: open-loop p50 %s p90 %s ms, steal %s%%; closed-loop %s q/s, steal %s%%\n",
		fmtList(p50s, "%.3f"), fmtList(p90s, "%.3f"), fmtList(scale(ph.openSteal, 100), "%.1f"),
		fmtList(qps, "%.0f"), fmtList(scale(ph.closedSteal, 100), "%.1f"))
	fmt.Printf("feeds: %d, latency p50 %.3fms max %.3fms; rows loaded or held %d of %d truth rows; rejected %d of %d records\n",
		len(ph.feeds), quantile(feedLat, 0.5), quantile(feedLat, 1), v.feedRowsSeen, v.feedRowsTruth, v.feedRejected, v.feedRejected+v.feedNormalized)
	fmt.Printf("feed latencies: %s ms\n", fmtList(feedLat, "%.1f"))
	printStages("open loop", ph.m1.delta(ph.m0))
	printStages("closed loop", ph.m2.delta(ph.m1))

	// The sample count behind a percentile is that of the windows
	// (with answers) it is taken over.
	rep.add("ask_p50_ms", quantile(finite(p50s), 0.25), "ms", len(askLat), traced)
	rep.add("ask_p90_ms", quantile(finite(p90s), 0.25), "ms", len(askLat), traced)
	rep.add("ask_p99_ms", quantile(askLat, 0.99), "ms", len(askLat), false)
	closedN := 0
	for _, vs := range closedWin {
		closedN += len(vs)
	}
	rep.add("throughput_qps", quantile(qps, 0.75), "1/s", closedN, traced)
	rep.add("cpu_ms_per_req", ms(ph.cpu)/float64(max(openOK, 1)), "ms", openOK, !traced)
	rep.add("answer_correct_ratio", ratio(float64(v.asksRight), float64(v.asks2xx)), "ratio", v.asks2xx, !traced)
	rep.add("feed_p50_ms", quantile(feedLat, 0.5), "ms", len(feedLat), traced)
	rep.add("feed_recall", ratio(float64(v.feedRowsSeen), float64(v.feedRowsTruth)), "ratio", v.feedRowsTruth, !traced)
	rep.add("rss_peak_mb", ph.rss, "MB", 1, !traced)
	return closedLat
}

// residual is the closed loop's mean /ask latency (µs) minus the
// per-request sum of the server's stage histograms: HTTP, JSON, the
// gate and the handler.
func residual(closedD metrics, closedLat []float64) float64 {
	asks := math.Max(closedD[`dwqa_stage_duration_seconds_count{stage="cache_lookup"}`], 1)
	var stageSum float64
	for _, st := range stageNames {
		sum, _ := closedD.stage(st)
		stageSum += sum
	}
	r := mean(closedLat)*1e3 - stageSum*1e6/asks
	fmt.Printf("reconcile closed loop: mean /ask %.1fus = stage sums %.1fus/req + residual %.1fus (%.0f asks)\n",
		mean(closedLat)*1e3, stageSum*1e6/asks, r, asks)
	return r
}

// tracedReport runs the in-process replay and adds the per-layer
// metrics it measures, printing the span self times beside the
// server's stage deltas.
func tracedReport(ctx context.Context, rep *report, dir string, t *traffic, tt *truth, ex *expectations, sched []sample,
	conns int, closedD metrics, residualUS, closedMeanUS float64, spanPath, spanName string) (bool, error) {
	tr, err := tracedRun(ctx, dir, t, tt, ex, tt.feedTruths(t.feeds), sched, conns)
	if err != nil {
		return false, err
	}
	if err := writeSpans(spanPath, tr.spans); err != nil {
		return false, err
	}
	self, calls := selfTimes(tr.spans, nil)
	fmt.Printf("traced: recover %.3fs open %.3fs warmup %.3fs; replayed %d asks (%d cache-model hits) and %d feeds; %d spans in %s\n",
		tr.recoverS, tr.openS, tr.warmS, tr.asks, tr.hits, tr.feeds, len(tr.spans), spanName)
	for _, w := range tr.wrong {
		fmt.Println("check: traced:", w)
	}
	perCall := func(l string) float64 { return float64(self[l]) / math.Max(float64(calls[l]), 1) }
	rep.add("nlp.analyse_us", perCall("nlp")/1e3, "us", calls["nlp"], true)
	rep.add("ir.search_us", perCall("ir")/1e3, "us", calls["ir"], true)
	rep.add("ir.passages_per_query", tr.passages, "count", calls["ir"], true)
	rep.add("qa.extract_us", perCall("qa.answer")/1e3, "us", calls["qa.answer"], true)
	rep.add("qa.accept_ratio", ratio(float64(tr.accepted), float64(tr.candidates)), "ratio", tr.candidates, true)
	rep.add("qa.harvest_ms", perCall("qa.harvest")/1e6, "ms", calls["qa.harvest"], true)
	rep.add("nl2olap.translate_us", perCall("nl2olap")/1e3, "us", calls["nl2olap"], true)
	rep.add("dw.execute_us", perCall("dw")/1e3, "us", calls["dw"], true)
	rep.add("dw.result_rows", ratio(float64(tr.rows), float64(tr.execs)), "count", tr.execs, true)
	rep.add("etl.load_ms", perCall("etl")/1e6, "ms", calls["etl"], true)
	rep.add("etl.reject_ratio", ratio(float64(tr.rejected), float64(tr.rejected+tr.normalized)), "ratio", tr.rejected+tr.normalized, true)
	rep.add("store.wal_append_ms", perCall("store")/1e6, "ms", calls["store"], true)
	rep.add("store.recover_s", tr.recoverS, "s", 1, true)

	// Reconciliation, per call so that the replay's cache model need not
	// match the server's cache: each layer's traced self time per call
	// (asks only) beside the server's stage time per call in the closed
	// loop; then the traced per-call times weighted by the server's calls
	// per ask, plus its cache lookups and the residual, against the
	// untraced mean /ask latency.
	feedReq := map[int32]bool{}
	for _, s := range tr.spans {
		if s.Parent < 0 && s.Layer == "feed" {
			feedReq[s.Req] = true
		}
	}
	askSelf, askCalls := selfTimes(tr.spans, func(s *span) bool { return !feedReq[s.Req] })
	asks := math.Max(closedD[`dwqa_stage_duration_seconds_count{stage="cache_lookup"}`], 1)
	lookup, _ := closedD.stage("cache_lookup")
	var layersUS float64
	fmt.Println("reconcile: layer        traced us/call  /metrics us/call  calls/ask")
	for _, p := range [][2]string{{"nl2olap", "olap_compile"}, {"dw", "olap_execute"}, {"nlp", "nlp_analyse"},
		{"ir", "ir_search"}, {"qa.answer", "qa_extract"}} {
		traced := float64(askSelf[p[0]]) / 1e3 / math.Max(float64(askCalls[p[0]]), 1)
		sum, n := closedD.stage(p[1])
		layersUS += traced * n / asks
		fmt.Printf("reconcile: %-12s %14.2f %17.2f %10.3f\n", p[0], traced, sum*1e6/math.Max(n, 1), n/asks)
	}
	predicted := layersUS + lookup*1e6/asks + residualUS
	fmt.Printf("reconcile: traced layers %.1fus + cache lookups %.1fus + residual %.1fus = %.1fus vs untraced mean /ask %.1fus (%+.1f%%)\n",
		layersUS, lookup*1e6/asks, residualUS, predicted, closedMeanUS, 100*(predicted-closedMeanUS)/closedMeanUS)
	return len(tr.wrong) == 0, nil
}

// windows splits a phase into equal windows of about half a second.
func windows(phase time.Duration) (int, time.Duration) {
	n := max(1, int(math.Round(phase.Seconds()*2)))
	return n, phase / time.Duration(n)
}

// windowed groups successful samples' values into the phase's windows
// by the given time; times past the phase (completions of the last
// requests) fold into the last window. It returns the windows and their
// length.
func windowed(samples []sample, phase time.Duration, at func(*sample) time.Duration,
	value func(*sample) (float64, bool)) ([][]float64, time.Duration) {
	n, width := windows(phase)
	out := make([][]float64, n)
	for i := range samples {
		s := &samples[i]
		if v, use := value(s); use && s.ok() {
			w := min(int(at(s)/width), n-1)
			out[w] = append(out[w], v)
		}
	}
	return out, width
}

// watchSteal samples the host's CPU counters now and at each window
// boundary of a phase starting now, on a goroutine of its own; the
// returned function waits for the last sample and gives each window's
// stolen share of the host's CPU time (nil if /proc/stat failed).
func watchSteal(phase time.Duration) func() []float64 {
	n, width := windows(phase)
	start := time.Now()
	out := make(chan []float64, 1)
	go func() {
		var steal, total []float64
		for k := 0; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * width)))
			st, tot, err := hostCPU()
			if err != nil {
				out <- nil
				return
			}
			steal, total = append(steal, st), append(total, tot)
		}
		shares := make([]float64, n)
		for k := range shares {
			shares[k] = ratio(steal[k+1]-steal[k], total[k+1]-total[k])
		}
		out <- shares
	}()
	return func() []float64 { return <-out }
}

// finite drops the NaNs of windows without a value.
func finite(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func printStages(phase string, d metrics) {
	var parts []string
	for _, st := range stageNames {
		sum, n := d.stage(st)
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.0f×%.1fus", st, n, sum*1e6/n))
		}
	}
	fmt.Printf("/metrics %s stage deltas: %s\n", phase, strings.Join(parts, " "))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// feedsIn counts the feeds of a schedule.
func feedsIn(sched []sample) int {
	n := 0
	for i := range sched {
		if sched[i].q < 0 {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the linearly interpolated q-quantile (q=1: the maximum).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// lagFlag marks a run whose generator fell behind its schedule.
func lagFlag(late []float64) string {
	if quantile(late, 0.99) > 1 {
		return " LAGGING (p99 lateness over 1ms)"
	}
	return ""
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the tree is a
// checkout, else a digest of its Go sources and module files.
func commitID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
