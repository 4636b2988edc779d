package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"swvec"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/seqio"
)

const (
	// setupRepeats is how often a run sets the workload up; setup_s is
	// the median.
	setupRepeats = 101
	// gateSamples random database sequences per query, besides the
	// planted homolog, have their search scores checked against
	// baselines.ScalarAffine.
	gateSamples = 8
	// refShare: the scalar reference scores every query against one
	// refShare-th of the database after each pass.
	refShare = 5
)

// Latency limits of slo_ok_ratio for the search workloads, per Search
// call: about four times the slowest query's latency on a 2-vCPU host.
var searchSLO = map[string]time.Duration{
	"search-short": time.Second,
	"search-long":  3 * time.Second,
}

// loadSearch is a library caller's set-up: decode the database FASTA and
// build the default aligner.
func loadSearch(path string) ([]swvec.Sequence, *swvec.Aligner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	db, _, err := swvec.DecodeFasta(f, swvec.DecodeOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("decode database: %w", err)
	}
	al, err := swvec.New()
	return db, al, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSearch is the closed-loop library workload: one caller runs whole
// passes of Aligner.Search, one call per query, with default options,
// and the scalar reference runs after every pass on a fixed share of
// the same work so that speedup_vs_scalar cancels slow host drift.
func runSearch(cfg config, lens []int) (*report, error) {
	rep := newReport(cfg.workload)
	in := makeSearchInputs(cfg.seed)
	queries, planted := in.pick(lens)
	dbPath, err := writeFasta(cfg.work, "search-db.fasta", in.db)
	if err != nil {
		return nil, err
	}

	var setups []float64
	var db []swvec.Sequence
	var al *swvec.Aligner
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if db, al, err = loadSearch(dbPath); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	mat, gaps := al.Matrix(), al.Gaps()
	alpha := mat.Alphabet()
	enc := make([][]uint8, len(queries))
	for i, q := range queries {
		enc[i] = q.Encode(alpha)
	}

	// Gate expectations, computed before timing: the planted homolog and
	// a seeded sample of database sequences per query, scored by the
	// golden oracle.
	rng := rand.New(rand.NewSource(cfg.seed + 3))
	type probe struct {
		idx   int
		score int32
	}
	probes := make([][]probe, len(queries))
	for qi := range queries {
		for _, i := range append([]int{planted[qi]}, rng.Perm(len(db))[:gateSamples]...) {
			probes[qi] = append(probes[qi], probe{i, baselines.ScalarAffine(enc[qi], db[i].Encode(alpha), mat, gaps).Score})
		}
	}
	// The scalar reference runs on as many goroutines as the search has
	// workers, each with its own share of a fixed seeded fifth of the
	// database, so both sides see the same host.
	threads := runtime.GOMAXPROCS(0)
	ref := newScalarPool(enc, db, rng.Perm(len(db))[:len(db)/refShare], threads, mat, gaps)

	// Warm-up pass, excluded from every figure.
	for _, q := range queries {
		if _, err := al.Search(q.Residues, db); err != nil {
			return nil, fmt.Errorf("warm-up search: %w", err)
		}
	}

	// A call keeps only what the gate and the figures read of its
	// result, so the harness's own memory does not grow with the number
	// of passes a run fits in.
	type call struct {
		qi       int
		err      error
		lat, cpu time.Duration
		ref      time.Duration // the scalar reference's run right after
		cells    int64
		kernel   core.Kernel
		top      int     // index of the best hit, -1 if none
		probed   []int32 // search scores of probes[qi], in order
	}
	var (
		calls              []call
		passWall           [2][]float64 // [plain, traced] search time per pass, ms
		passPeak           []float64    // the harness's peak RSS per pass, MB
		traced             []swvec.SearchStats
		tracedElapsed      time.Duration
		tracedPasses       int
		harnessSelf, spans float64
	)
	tr := newTracer()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		// A traced run alternates traced and plain passes; the plain ones
		// price the tracing (trace.overhead_ratio).
		tracing := cfg.trace && pass%2 == 1
		// rss_peak_mb is the median of the per-pass peaks: one pass that
		// meets a late garbage collection does not move it.
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, err
		}
		passSpan := 0
		if tracing {
			passSpan = tr.begin(0, "pass")
		}
		var pw time.Duration
		for qi, q := range queries {
			sp := 0
			if tracing {
				sp = tr.begin(passSpan, "swvec.Search")
			}
			cpu0, t := cpuTime(), time.Now()
			res, err := al.Search(q.Residues, db)
			lat := time.Since(t)
			c := call{qi: qi, err: err, lat: lat, cpu: cpuTime() - cpu0, top: -1}
			pw += lat
			if tracing && err == nil {
				now := time.Now()
				tr.add(sp, "sched.pipeline", now.Add(-res.Elapsed), now, res.Cells)
				tr.end(sp, res.Cells)
				traced = append(traced, res.Stats)
				tracedElapsed += res.Elapsed
			}
			if err == nil {
				c.cells, c.kernel = res.Cells, res.Kernel
				if top := res.TopHits(1); len(top) == 1 {
					c.top = top[0].SeqIndex
				}
				for _, p := range probes[qi] {
					c.probed = append(c.probed, res.Hits[p.idx].Score)
				}
			}
			// The reference runs right after each call, so slow host
			// phases hit both sides of speedup_vs_scalar alike.
			if tracing {
				sp = tr.begin(passSpan, "ref.scalar")
			}
			t = time.Now()
			ref.run(qi)
			c.ref = time.Since(t)
			if tracing {
				tr.end(sp, ref.cells[qi])
			}
			calls = append(calls, c)
		}
		if tracing {
			tr.end(passSpan, 0)
			tracedPasses++
			harnessSelf += tr.selfTime(passSpan)
			spans += tr.duration(passSpan)
			passWall[1] = append(passWall[1], ms(pw))
		} else {
			passWall[0] = append(passWall[0], ms(pw))
		}
		self, err := readProcStat(os.Getpid())
		if err != nil {
			return nil, err
		}
		passPeak = append(passPeak, float64(self.hwmKiB)/1024)
	}

	// Correctness gate, outside the timed window.
	var lats []float64
	sloOK := 0
	for _, c := range calls {
		rep.attempted++
		if c.err != nil {
			rep.fail("%s: search error: %v", queries[c.qi].ID, c.err)
			continue
		}
		lats = append(lats, ms(c.lat))
		ok := true
		if c.top != planted[c.qi] {
			rep.fail("%s: planted homolog %d does not rank first (top %d)", queries[c.qi].ID, planted[c.qi], c.top)
			ok = false
		}
		for i, p := range probes[c.qi] {
			if got := c.probed[i]; got != p.score {
				rep.fail("%s: hit %d scored %d, ScalarAffine %d", queries[c.qi].ID, p.idx, got, p.score)
				ok = false
			}
		}
		if ok && c.lat <= searchSLO[cfg.workload] {
			sloOK++
		}
	}

	// Whole-pass figures compose one pass from each query's median call:
	// a burst of host noise during one call does not move them. Cells
	// per call are the same on every pass.
	var passCells, refCells int64
	var passTime, passCPU, refTime float64
	for qi := range queries {
		var lat, cpu, rt []float64
		var cells int64
		for _, c := range calls {
			if c.qi == qi && c.err == nil {
				lat = append(lat, c.lat.Seconds())
				cpu = append(cpu, c.cpu.Seconds())
				rt = append(rt, c.ref.Seconds())
				cells = c.cells
			}
		}
		passCells += cells
		passTime += median(lat)
		passCPU += median(cpu)
		refTime += median(rt)
		refCells += ref.cells[qi]
	}
	scalar := float64(refCells) / refTime / 1e9 // all threads
	if !cfg.trace {
		gcups := float64(passCells) / passTime / 1e9
		n := len(calls)
		passes := len(passWall[0])
		rep.set("gcups", gcups, "GCUPS", passes)
		rep.set("speedup_vs_scalar", gcups/scalar, "ratio", passes)
		rep.set("p50_ms", median(lats), "ms", len(lats))
		rep.set("p90_ms", quantile(lats, 0.9), "ms", len(lats))
		rep.set("slo_ok_ratio", ratio(float64(sloOK), float64(n)), "ratio", n)
		rep.set("cpu_ms_per_query", passCPU*1e3/float64(len(queries)), "ms", n)
		rep.set("setup_s", median(setups), "s", len(setups))
		rep.set("rss_peak_mb", median(passPeak), "MB", len(passPeak))
		return rep, nil
	}

	// Traced run: per-layer figures. Direct calls, outside the timed
	// window, replay one pass layer by layer on the same batches: the
	// transposition, then the 8-bit kernel of the planner's family, then
	// the 16-bit kernel on the lanes that saturated.
	lanes := batchLanes()
	var transpose, kern8, kern16 time.Duration
	var padEngine, padReal int64
	env := newKernelEnv(mat, gaps)
	replay := tr.begin(0, "replay")
	for qi := range queries {
		sp := tr.begin(replay, "seqio.BuildBatches")
		t := time.Now()
		batches := seqio.BuildBatches(db, alpha, seqio.BatchOptions{Lanes: lanes})
		transpose += time.Since(t)
		tr.end(sp, 0)
		if qi == 0 {
			for _, b := range batches {
				padEngine += int64(b.MaxLen) * int64(b.Stride())
				padReal += b.Cells(1)
			}
		}
		// The replay runs the family the planner chose for this query.
		var kern core.Kernel
		for _, c := range calls {
			if c.qi == qi && c.err == nil {
				kern = c.kernel
			}
		}
		var saturated []int
		var cells int64
		sp = tr.begin(replay, "core.AlignBatch8")
		t = time.Now()
		for _, b := range batches {
			cells += b.Cells(len(enc[qi]))
			br, err := env.align8(enc[qi], b, kern)
			if err != nil {
				return nil, fmt.Errorf("replay align8: %w", err)
			}
			for lane := 0; lane < b.Count; lane++ {
				if br.Saturated[lane] {
					saturated = append(saturated, b.Index[lane])
				}
			}
		}
		kern8 += time.Since(t)
		tr.end(sp, cells)
		cells = 0
		sp = tr.begin(replay, "core.AlignBatch16")
		t = time.Now()
		for i := 0; i < len(saturated); i += lanes {
			b := seqio.MakeBatch(db, saturated[i:min(i+lanes, len(saturated))], alpha, lanes)
			cells += b.Cells(len(enc[qi]))
			if _, err := env.align16(enc[qi], b, kern); err != nil {
				return nil, fmt.Errorf("replay align16: %w", err)
			}
		}
		kern16 += time.Since(t)
		tr.end(sp, cells)
	}
	tr.end(replay, 0)
	batches := seqio.BuildBatches(db, alpha, seqio.BatchOptions{Lanes: lanes})
	kr, err := measureKernels(enc, batches, mat, gaps)
	if err != nil {
		return nil, err
	}

	var sum swvec.SearchStats
	var queueHigh int64
	for _, s := range traced {
		addStats(&sum, s, 1)
		queueHigh = max(queueHigh, s.QueueHighWater)
	}
	perPass := func(n int64) float64 { return float64(n) / float64(max(tracedPasses, 1)) }
	busy := sum.ProduceNanos + sum.Stage8Nanos + sum.Stage16Nanos + sum.Stage32Nanos
	rep.set("seqio.transpose_ms", ms(transpose), "ms", len(queries))
	rep.set("seqio.pad_ratio", ratio(float64(padEngine), float64(padReal)), "ratio", 1)
	rep.set("kernel.batch8_gcups", kr.batch8, "GCUPS", 1)
	rep.set("kernel.batch16_gcups", kr.batch16, "GCUPS", 1)
	rep.set("kernel.striped_gcups", kr.striped, "GCUPS", 1)
	rep.set("kernel.multi8_gcups", kr.multi8, "GCUPS", 1)
	rep.set("ref.scalar_gcups", scalar/float64(threads), "GCUPS", len(calls))
	rep.set("sched.stage8_busy_s", perPass(sum.Stage8Nanos)/1e9, "s", tracedPasses)
	rep.set("sched.stage16_busy_s", perPass(sum.Stage16Nanos)/1e9, "s", tracedPasses)
	rep.set("sched.stage32_busy_s", perPass(sum.Stage32Nanos)/1e9, "s", tracedPasses)
	rep.set("sched.produce_busy_s", perPass(sum.ProduceNanos)/1e9, "s", tracedPasses)
	rep.set("sched.worker_util", ratio(float64(sum.Stage8Nanos+sum.Stage16Nanos+sum.Stage32Nanos), float64(tracedElapsed)*float64(threads)), "ratio", len(traced))
	rep.set("sched.kernel_share", ratio(float64(kern8+kern16), perPass(busy)), "ratio", 1)
	rep.set("sched.rescue_cell_share", ratio(float64(sum.Cells16+sum.Cells32), float64(sum.Cells())), "ratio", len(traced))
	rep.set("sched.queue_high_water", float64(queueHigh), "count", len(traced))
	rep.set("sched.batches_diagonal", perPass(sum.BatchesDiagonal), "count", tracedPasses)
	rep.set("sched.batches_striped", perPass(sum.BatchesStriped+sum.BatchesLazyF), "count", tracedPasses)
	rep.bypass("swserver.", "cluster.", "loadgen.late_p90_ms")
	rep.set("loadgen.sent", float64(len(calls)), "count", 1)
	rep.set("trace.overhead_ratio", ratio(median(passWall[1]), median(passWall[0])), "ratio", len(passWall[1]))
	rep.set("trace.harness_self_share", ratio(harnessSelf, spans), "ratio", tracedPasses)
	return rep, tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed)))
}

// addStats adds sign times the counters the benchmark reads from s to
// dst (sign -1 turns two snapshots into a delta).
func addStats(dst *swvec.SearchStats, s swvec.SearchStats, sign int64) {
	dst.Cells8 += sign * s.Cells8
	dst.Cells16 += sign * s.Cells16
	dst.Cells32 += sign * s.Cells32
	dst.ProduceNanos += sign * s.ProduceNanos
	dst.Stage8Nanos += sign * s.Stage8Nanos
	dst.Stage16Nanos += sign * s.Stage16Nanos
	dst.Stage32Nanos += sign * s.Stage32Nanos
	dst.BatchesDiagonal += sign * s.BatchesDiagonal
	dst.BatchesStriped += sign * s.BatchesStriped
	dst.BatchesLazyF += sign * s.BatchesLazyF
}
