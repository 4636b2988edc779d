package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/sched"
	"swvec/internal/seqio"
)

const (
	// serveRate is the open-loop arrival rate of both latency workloads.
	// On a 2-vCPU host the cluster workload once answered 16 req/s with
	// a p90 near 120 ms, but from 6-8 req/s on, a run that meets a slow
	// host phase can tip into a hedge storm (see LEDGER.md); at 4 req/s
	// ten runs of ten stayed clear, and a 28 s run gives 112 latency
	// samples. The serve workload gets the same rate so the two differ
	// only by the router layer.
	serveRate = 4.0
	// serveConns pipelined client connections carry the load (at most
	// nproc on the hosts the benchmark targets).
	serveConns = 2
	serveTop   = 10
	// serveWarmup of load runs before the timed window and is excluded
	// from every figure.
	serveWarmup = 2 * time.Second
	// serveSLO is the latency limit of slo_ok_ratio, timed from each
	// request's due time.
	serveSLO = time.Second
	// drainLimit is how long after its due time a request may still be
	// answered before it counts as a timeout.
	drainLimit = 10 * time.Second
	// lateLimit: when the generator's own p90 lateness exceeds it, the
	// generator, not the system, set the pace, and the run is invalid.
	lateLimit = 50 * time.Millisecond
	// serverSetups is how often a run starts the server fleet; setup_s
	// is the median start-to-listen time. The last start serves the load.
	serverSetups = 15
)

// wireResponse decodes both swserver's and swrouter's replies.
type wireResponse struct {
	ID      string        `json:"id"`
	Hits    []cluster.Hit `json:"hits"`
	Error   string        `json:"error"`
	Code    string        `json:"code"`
	Partial bool          `json:"partial"`
}

// request is one scheduled query.
type request struct {
	id        string
	q         int
	due, sent time.Time
	done      time.Time
	resp      *wireResponse
	sendErr   error
	answered  chan struct{}
}

// schedule returns n open-loop arrivals after start at the given mean
// rate, spaced as a Poisson process is, by exponential gaps. The gaps
// are the exponential distribution's quantiles at evenly spaced levels,
// in a seeded order: every seed offers the same load with the same
// clumping (how many requests arrive within one accumulation window of
// the one before, which sets the latency tail), while the order of gaps
// and queries varies.
func schedule(rng *rand.Rand, start time.Time, n int, rate float64, prefix string, next *int, pool int) []*request {
	gaps := make([]float64, n)
	var sum float64
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / rate
		sum += gaps[i]
	}
	offs := make([]float64, n)
	at := 0.0
	for i, k := range rng.Perm(n) {
		// Scaled so the n arrivals span n/rate seconds exactly.
		at += gaps[k] * float64(n) / rate / sum
		offs[i] = at
	}
	reqs := make([]*request, n)
	for i, o := range offs {
		reqs[i] = &request{
			id:       fmt.Sprintf("%s%05d", prefix, *next),
			q:        *next % pool,
			due:      start.Add(time.Duration(o * float64(time.Second))),
			answered: make(chan struct{}),
		}
		*next++
	}
	return reqs
}

// loadgen is the open-loop client: requests go out on their due time
// over a few pipelined connections, whatever happened to earlier ones.
type loadgen struct {
	conns   []net.Conn
	readers sync.WaitGroup
	mu      sync.Mutex
	waiting map[string]*request
}

func dialLoadgen(addr string, n int) (*loadgen, error) {
	lg := &loadgen{waiting: map[string]*request{}}
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			lg.close()
			return nil, err
		}
		lg.conns = append(lg.conns, c)
		lg.readers.Add(1)
		go lg.read(c)
	}
	return lg, nil
}

func (lg *loadgen) read(c net.Conn) {
	defer lg.readers.Done()
	dec := json.NewDecoder(bufio.NewReader(c))
	for {
		var r wireResponse
		if err := dec.Decode(&r); err != nil {
			return
		}
		now := time.Now()
		lg.mu.Lock()
		req, ok := lg.waiting[r.ID]
		delete(lg.waiting, r.ID)
		lg.mu.Unlock()
		if ok {
			req.done, req.resp = now, &r
			close(req.answered)
		}
	}
}

// run sends reqs on schedule, round-robin over the connections, and
// returns once each was answered or its drain limit passed.
func (lg *loadgen) run(reqs []*request, pool []seqio.Sequence) {
	var wg sync.WaitGroup
	for ci, c := range lg.conns {
		wg.Add(1)
		go func(ci int, c net.Conn) {
			defer wg.Done()
			w := bufio.NewWriter(c)
			enc := json.NewEncoder(w)
			for j := ci; j < len(reqs); j += len(lg.conns) {
				r := reqs[j]
				time.Sleep(time.Until(r.due))
				lg.mu.Lock()
				lg.waiting[r.id] = r
				lg.mu.Unlock()
				r.sent = time.Now()
				c.SetWriteDeadline(r.sent.Add(5 * time.Second))
				err := enc.Encode(cluster.Request{ID: r.id, Residues: string(pool[r.q].Residues), Top: serveTop})
				if err == nil {
					err = w.Flush()
				}
				if err != nil {
					r.sendErr = err
					lg.mu.Lock()
					delete(lg.waiting, r.id)
					lg.mu.Unlock()
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, r := range reqs {
		if r.sendErr != nil {
			continue
		}
		select {
		case <-r.answered:
		case <-time.After(time.Until(r.due.Add(drainLimit))):
			// Give up on it, unless the reader has just claimed the reply.
			lg.mu.Lock()
			_, waiting := lg.waiting[r.id]
			delete(lg.waiting, r.id)
			lg.mu.Unlock()
			if !waiting {
				<-r.answered
			}
		}
	}
}

// close ends the connections and waits for the readers.
func (lg *loadgen) close() {
	for _, c := range lg.conns {
		c.Close()
	}
	lg.readers.Wait()
}

// fleet is the server side of a latency workload: swserver alone, or
// swrouter with the shards it spawns.
type fleet struct {
	p     *proc
	addr  string
	admin string
}

func startFleet(cfg config, dbPath string) (*fleet, []float64, error) {
	var setups []float64
	var f *fleet
	for i := 0; i < serverSetups; i++ {
		if f != nil {
			f.p.stop()
		}
		f = &fleet{}
		var args []string
		if cfg.trace {
			port, err := freePort()
			if err != nil {
				return nil, nil, err
			}
			f.admin = fmt.Sprintf("127.0.0.1:%d", port)
			args = append(args, "-admin", f.admin)
		}
		start := time.Now()
		var err error
		if cfg.workload == "cluster" {
			f.p, f.addr, err = startProc(filepath.Join(cfg.bin, "swrouter"), append(args,
				"-listen", "127.0.0.1:0", "-db", dbPath, "-spawn", "2",
				"-swserver-bin", filepath.Join(cfg.bin, "swserver"), "-shard-args", "-threads 1")...)
		} else {
			f.p, f.addr, err = startProc(filepath.Join(cfg.bin, "swserver"), append(args,
				"-listen", "127.0.0.1:0", "-db", dbPath)...)
		}
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return f, setups, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// usage sums CPU time and peak RSS over the fleet's processes; the
// first pid is the leader (swserver, or swrouter before its shards).
type usage struct {
	leader, rest time.Duration
	hwmKiB       int64
}

func (f *fleet) usage() (usage, error) {
	var u usage
	for i, pid := range f.p.pids() {
		st, err := readProcStat(pid)
		if err != nil {
			return u, err
		}
		if i == 0 {
			u.leader = st.cpu
		} else {
			u.rest += st.cpu
		}
		u.hwmKiB += st.hwmKiB
	}
	return u, nil
}

// vars scrapes the admin port's /debug/vars.
func (f *fleet) vars() (map[string]json.RawMessage, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + f.admin + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v map[string]json.RawMessage
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// runServe drives the real swserver (serve) or swrouter with two
// single-threaded shards (cluster) over loopback with an open-loop
// Poisson load at serveRate, default server flags, and checks every
// response against the library's single-node top-K.
func runServe(cfg config) (*report, error) {
	rep := newReport(cfg.workload)
	in := makeServeInputs(cfg.seed)
	dbPath, err := writeFasta(cfg.work, "serve-db.fasta", in.db)
	if err != nil {
		return nil, err
	}

	// Expected answers, from the library on one node.
	al, err := swvec.New()
	if err != nil {
		return nil, err
	}
	queries := make([][]byte, len(in.pool))
	for i, q := range in.pool {
		queries[i] = q.Residues
	}
	mres, err := al.SearchAll(queries, in.db)
	if err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	want := make([][]cluster.Hit, len(in.pool))
	qcells := make([]int64, len(in.pool))
	for qi := range in.pool {
		hits := make([]sched.Hit, len(in.db))
		for i, s := range mres.Scores[qi] {
			hits[i] = sched.Hit{SeqIndex: i, Score: s}
		}
		for _, h := range sched.TopK(hits, serveTop) {
			want[qi] = append(want[qi], cluster.Hit{SeqID: in.db[h.SeqIndex].ID, Score: h.Score})
		}
		qcells[qi] = int64(in.pool[qi].Len()) * seqio.TotalResidues(in.db)
	}

	f, setups, err := startFleet(cfg, dbPath)
	if err != nil {
		return nil, err
	}
	defer f.p.stop()
	lg, err := dialLoadgen(f.addr, serveConns)
	if err != nil {
		return nil, err
	}
	defer lg.close()

	rng := rand.New(rand.NewSource(cfg.seed + 4))
	next := 0
	lg.run(schedule(rng, time.Now(), int(serveRate*serveWarmup.Seconds()), serveRate, "warm", &next, len(in.pool)), in.pool)

	// The timed window. A traced run splits it: the first half runs
	// plain, the second retains server logs and is bracketed by
	// /debug/vars scrapes, and per-layer figures come from it alone.
	n := int(serveRate * cfg.seconds.Seconds())
	next = 0
	halves := [][]*request{schedule(rng, time.Now().Add(50*time.Millisecond), n, serveRate, "req", &next, len(in.pool))}
	if cfg.trace {
		halves = [][]*request{halves[0][:n/2], halves[0][n/2:]}
	}
	alpha := al.Matrix().Alphabet()
	var enc, targets [][]uint8
	for _, q := range in.pool {
		enc = append(enc, q.Encode(alpha))
	}
	for _, d := range in.db {
		targets = append(targets, d.Encode(alpha))
	}
	scalarDone := sync.OnceValue(startScalarSampler(enc, targets, al.Matrix(), al.Gaps()).finish)
	defer scalarDone()
	u0, err := f.usage()
	if err != nil {
		return nil, err
	}
	var vars0, vars1 map[string]json.RawMessage
	var tracedStart, tracedEnd time.Time
	tr := newTracer()
	for hi, reqs := range halves {
		if hi == 1 {
			if vars0, err = f.vars(); err != nil {
				return nil, err
			}
			f.p.record(true)
			tracedStart = time.Now()
		}
		lg.run(reqs, in.pool)
	}
	if cfg.trace {
		tracedEnd = time.Now()
		f.p.record(false)
		if vars1, err = f.vars(); err != nil {
			return nil, err
		}
	}
	u1, err := f.usage()
	scalar := scalarDone()
	if err != nil {
		return nil, err
	}
	all := halves[0]
	if cfg.trace {
		all = append(append([]*request(nil), halves[0]...), halves[1]...)
	}

	// Correctness gate and latency, outside the timed window.
	var lats, late []float64
	var cells int64
	sloOK, answered := 0, 0
	for _, r := range all {
		rep.attempted++
		late = append(late, ms(r.sent.Sub(r.due)))
		switch {
		case r.sendErr != nil:
			rep.fail("%s: send: %v", r.id, r.sendErr)
			continue
		case r.resp == nil:
			rep.fail("%s: no answer within %s", r.id, drainLimit)
			continue
		}
		answered++
		lat := r.done.Sub(r.due)
		lats = append(lats, ms(lat))
		if msg := checkResponse(r.resp, want[r.q]); msg != "" {
			rep.fail("%s (%s): %s", r.id, in.pool[r.q].ID, msg)
			continue
		}
		cells += qcells[r.q]
		if lat <= serveSLO {
			sloOK++
		}
	}
	if lp := quantile(late, 0.9); lp > ms(lateLimit) {
		return nil, fmt.Errorf("run invalid: the load generator fell behind its schedule (p90 lateness %.1f ms > %s)", lp, lateLimit)
	}
	serverCPU := (u1.leader + u1.rest) - (u0.leader + u0.rest)
	f.p.stop()

	if !cfg.trace {
		gcups := ratio(float64(cells), serverCPU.Seconds()*1e9)
		rep.set("gcups", gcups, "GCUPS", answered)
		rep.set("speedup_vs_scalar", ratio(gcups, scalar), "ratio", answered)
		rep.set("p50_ms", median(lats), "ms", len(lats))
		rep.set("p90_ms", quantile(lats, 0.9), "ms", len(lats))
		rep.set("slo_ok_ratio", ratio(float64(sloOK), float64(len(all))), "ratio", len(all))
		rep.set("cpu_ms_per_query", ms(serverCPU)/float64(max(answered, 1)), "ms", answered)
		rep.set("setup_s", median(setups), "s", len(setups))
		rep.set("rss_peak_mb", float64(u1.hwmKiB)/1024, "MB", 1)
		return rep, nil
	}
	return rep, serveLayers(rep, servedRun{
		cfg: cfg, in: in, f: f, al: al, enc: enc, scalar: scalar,
		plain: halves[0], traced: halves[1], start: tracedStart, end: tracedEnd,
		vars0: vars0, vars1: vars1, u0: u0, u1: u1, answered: answered,
		late: late, tr: tr,
	})
}

// checkResponse compares a reply with the expected single-node top-K;
// it returns "" when they are bit-identical.
func checkResponse(r *wireResponse, want []cluster.Hit) string {
	switch {
	case r.Error != "":
		return fmt.Sprintf("error %s: %s", r.Code, r.Error)
	case r.Partial:
		return "partial result"
	case len(r.Hits) != len(want):
		return fmt.Sprintf("%d hits, want %d", len(r.Hits), len(want))
	}
	for i := range want {
		if r.Hits[i] != want[i] {
			return fmt.Sprintf("hit %d is %+v, want %+v", i, r.Hits[i], want[i])
		}
	}
	return ""
}

var (
	batchRE   = regexp.MustCompile(`event=batch queries=(\d+) cells=\d+ elapsed_ms=([0-9.]+)`)
	scatterRE = regexp.MustCompile(`event=scatter id="([^"]+)".* elapsed_ms=([0-9.]+)`)
	shardRE   = regexp.MustCompile(`^\S+ \S+ (shard\d+\.\d+): `)
)

// batchLine is one server batch: when its log line arrived, how many
// queries it held, and its compute time.
type batchLine struct {
	at      time.Time
	queries int
	compute float64
}

// nearest returns the compute time of the batch whose log line arrived
// closest to t. The line is written just before the batch's replies,
// so the closest line is the request's own batch.
func nearest(bs []batchLine, t time.Time) float64 {
	best, bestD := 0.0, time.Duration(1<<62)
	for _, b := range bs {
		d := b.at.Sub(t)
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = b.compute, d
		}
	}
	return best
}

// servedRun is what a traced latency run hands to serveLayers.
type servedRun struct {
	cfg           config
	in            serveInputs
	f             *fleet
	al            *swvec.Aligner
	enc           [][]uint8
	scalar        float64
	plain, traced []*request
	start, end    time.Time // the traced half
	vars0, vars1  map[string]json.RawMessage
	u0, u1        usage
	answered      int
	late          []float64
	tr            *tracer // started with the timed window
}

// serveLayers derives the per-layer figures of a traced latency run
// from the retained server logs, the /debug/vars scrapes around the
// traced half, and direct calls on the workload's own inputs.
func serveLayers(rep *report, s servedRun) error {
	cluster := s.cfg.workload == "cluster"
	batches := map[string][]batchLine{} // by shard tag; "" is swserver itself
	scatter := map[string]float64{}
	var shed, degraded int
	for _, l := range s.f.p.logs() {
		tag := ""
		if m := shardRE.FindStringSubmatch(l.text); m != nil {
			tag = m[1]
		}
		serverLine := !cluster || tag != ""
		if m := batchRE.FindStringSubmatch(l.text); m != nil && serverLine {
			q, _ := strconv.Atoi(m[1])
			c, _ := strconv.ParseFloat(m[2], 64)
			batches[tag] = append(batches[tag], batchLine{at: l.at, queries: q, compute: c})
		}
		if m := scatterRE.FindStringSubmatch(l.text); m != nil && tag == "" {
			c, _ := strconv.ParseFloat(m[2], 64)
			scatter[m[1]] = c
		}
		if serverLine && strings.Contains(l.text, "event=shed ") {
			shed++
		}
		if serverLine && strings.Contains(l.text, "event=degraded ") {
			degraded++
		}
	}
	var computes, queries []float64
	for _, bs := range batches {
		for _, b := range bs {
			computes = append(computes, b.compute)
			queries = append(queries, float64(b.queries))
		}
	}

	tr := s.tr
	var lats, waits, scatters, fronts []float64
	for _, r := range s.traced {
		if r.resp == nil {
			continue
		}
		lat := ms(r.done.Sub(r.due))
		lats = append(lats, lat)
		root := tr.add(0, "request", r.due, r.done, 0)
		if !cluster {
			c := nearest(batches[""], r.done)
			waits = append(waits, lat-c)
			tr.add(root, "swserver.batch", r.done.Add(-time.Duration(c*float64(time.Millisecond))), r.done, 0)
			continue
		}
		sc, ok := scatter[r.id]
		if !ok {
			continue
		}
		scatters = append(scatters, sc)
		fronts = append(fronts, lat-sc)
		tr.add(root, "cluster.scatter", r.done.Add(-time.Duration(sc*float64(time.Millisecond))), r.done, 0)
		// The slower shard's batch bounds the scatter.
		var slowest float64
		for _, bs := range batches {
			slowest = max(slowest, nearest(bs, r.done))
		}
		waits = append(waits, sc-slowest)
	}

	var plainLats []float64
	for _, r := range s.plain {
		if r.resp != nil {
			plainLats = append(plainLats, ms(r.done.Sub(r.due)))
		}
	}

	// Direct calls on the workload's inputs: the server transposes its
	// length-sorted database into batches for every accumulated batch.
	mat, gaps := s.al.Matrix(), s.al.Gaps()
	var transposes []float64
	var built []*seqio.Batch
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		built = seqio.BuildBatches(s.in.db, mat.Alphabet(), seqio.BatchOptions{SortByLength: true, Lanes: batchLanes()})
		transposes = append(transposes, ms(time.Since(t)))
	}
	var padEngine, padReal int64
	for _, b := range built {
		padEngine += int64(b.MaxLen) * int64(b.Stride())
		padReal += b.Cells(1)
	}
	kr, err := measureKernels(s.enc, built, mat, gaps)
	if err != nil {
		return err
	}

	rep.set("seqio.transpose_ms", median(transposes), "ms", len(transposes))
	rep.set("seqio.pad_ratio", ratio(float64(padEngine), float64(padReal)), "ratio", 1)
	rep.set("kernel.batch8_gcups", kr.batch8, "GCUPS", 1)
	rep.set("kernel.batch16_gcups", kr.batch16, "GCUPS", 1)
	rep.set("kernel.striped_gcups", kr.striped, "GCUPS", 1)
	rep.set("kernel.multi8_gcups", kr.multi8, "GCUPS", 1)
	rep.set("ref.scalar_gcups", s.scalar, "GCUPS", 1)

	// The pipeline counters are swserver's; behind swrouter the shards
	// serve no admin port, so the cluster run cannot see them.
	if cluster {
		rep.bypass("sched.")
	} else {
		var a, b, d swvec.SearchStats
		if err := json.Unmarshal(s.vars0["swvec.search"], &a); err != nil {
			return fmt.Errorf("swvec.search vars: %w", err)
		}
		if err := json.Unmarshal(s.vars1["swvec.search"], &b); err != nil {
			return fmt.Errorf("swvec.search vars: %w", err)
		}
		addStats(&d, b, 1)
		addStats(&d, a, -1)
		stages := d.Stage8Nanos + d.Stage16Nanos + d.Stage32Nanos
		// Kernel-only time is estimated from the directly measured
		// rates: 8-bit cells at the multi-query rate the server's engine
		// runs, rescue cells at the 16-bit rate.
		kernelNanos := float64(d.Cells8)/kr.multi8 + float64(d.Cells16+d.Cells32)/kr.batch16
		rep.set("sched.stage8_busy_s", float64(d.Stage8Nanos)/1e9, "s", 1)
		rep.set("sched.stage16_busy_s", float64(d.Stage16Nanos)/1e9, "s", 1)
		rep.set("sched.stage32_busy_s", float64(d.Stage32Nanos)/1e9, "s", 1)
		rep.set("sched.produce_busy_s", float64(d.ProduceNanos)/1e9, "s", 1)
		rep.set("sched.worker_util", ratio(float64(stages), float64(s.end.Sub(s.start))*float64(runtime.GOMAXPROCS(0))), "ratio", 1)
		rep.set("sched.kernel_share", ratio(kernelNanos, float64(stages+d.ProduceNanos)), "ratio", 1)
		rep.set("sched.rescue_cell_share", ratio(float64(d.Cells16+d.Cells32), float64(d.Cells())), "ratio", 1)
		rep.set("sched.queue_high_water", float64(b.QueueHighWater), "count", 1)
		rep.set("sched.batches_diagonal", float64(d.BatchesDiagonal), "count", 1)
		rep.set("sched.batches_striped", float64(d.BatchesStriped+d.BatchesLazyF), "count", 1)
	}

	perQuery := func(c time.Duration) float64 { return ms(c) / float64(max(s.answered, 1)) }
	rep.set("swserver.compute_ms_p50", median(computes), "ms", len(computes))
	rep.set("swserver.wait_ms_p50", median(waits), "ms", len(waits))
	rep.set("swserver.batch_queries_mean", mean(queries), "count", len(queries))
	if cluster {
		rep.set("swserver.cpu_ms_per_query", perQuery(s.u1.rest-s.u0.rest), "ms", s.answered)
	} else {
		rep.set("swserver.cpu_ms_per_query", perQuery(s.u1.leader-s.u0.leader), "ms", s.answered)
	}
	rep.set("swserver.shed", float64(shed), "count", 1)
	rep.set("swserver.degraded", float64(degraded), "count", 1)

	if cluster {
		var a, b clusterVars
		if err := json.Unmarshal(s.vars0["swvec.cluster"], &a); err != nil {
			return fmt.Errorf("swvec.cluster vars: %w", err)
		}
		if err := json.Unmarshal(s.vars1["swvec.cluster"], &b); err != nil {
			return fmt.Errorf("swvec.cluster vars: %w", err)
		}
		req, hedges, wins, retries := b.sum()
		req0, hedges0, wins0, retries0 := a.sum()
		rep.set("cluster.scatter_ms_p50", median(scatters), "ms", len(scatters))
		rep.set("cluster.front_ms_p50", median(fronts), "ms", len(fronts))
		rep.set("cluster.hedge_ratio", ratio(float64(hedges-hedges0), float64(req-req0)), "ratio", int(req-req0))
		rep.set("cluster.hedge_win_ratio", ratio(float64(wins-wins0), float64(hedges-hedges0)), "ratio", int(hedges-hedges0))
		rep.set("cluster.retries", float64(retries-retries0), "count", 1)
		rep.set("cluster.partial", float64(b.Partial-a.Partial), "count", 1)
		rep.set("cluster.router_cpu_ms_per_query", perQuery(s.u1.leader-s.u0.leader), "ms", s.answered)
		rep.set("cluster.shard_cpu_ms_per_query", perQuery(s.u1.rest-s.u0.rest), "ms", s.answered)
	} else {
		rep.bypass("cluster.")
	}
	rep.bypass("trace.harness_self_share") // no harness code runs between a request's spans
	rep.set("loadgen.sent", float64(len(s.plain)+len(s.traced)), "count", 1)
	rep.set("loadgen.late_p90_ms", quantile(s.late, 0.9), "ms", len(s.late))
	rep.set("trace.overhead_ratio", ratio(median(lats), median(plainLats)), "ratio", len(lats))
	return tr.write(filepath.Join(s.cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", s.cfg.workload, s.cfg.seed)))
}

// clusterVars is the part of swrouter's "swvec.cluster" expvar the
// benchmark reads.
type clusterVars struct {
	Partial int64 `json:"partial"`
	Shards  []struct {
		Requests  int64 `json:"requests"`
		Hedges    int64 `json:"hedges"`
		HedgeWins int64 `json:"hedge_wins"`
		Retries   int64 `json:"retries"`
	} `json:"shards"`
}

func (v clusterVars) sum() (requests, hedges, wins, retries int64) {
	for _, s := range v.Shards {
		requests += s.Requests
		hedges += s.Hedges
		wins += s.HedgeWins
		retries += s.Retries
	}
	return
}
