package main

// serve-mix: a warm in-process daemon (server.New(...).Handler() on a
// loopback listener, memory tier only) fed an open-loop, seeded,
// fixed-rate stream of /gate and /assert requests over the study corpus
// from two connections. Most requests repeat one of the pool's valid
// (case, input) pairs and hit the warm caches; a fixed share are novel
// fixed-length whitespace edits of a case head, which insert into the
// caches. Each request is timed from the moment it was due.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/diffutil"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/server"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

const (
	// serveRate is the offered load in requests per second. The daemon
	// serves about 2,400 req/s closed loop over two connections on a
	// 2-core host; at half that, identical runs disagreed on p99 by more
	// than 2x, so the rate is a sixth of it.
	serveRate = 400
	// serveConns bounds the client's connections (and its senders).
	serveConns = 2
	// novelEvery makes one request in novelEvery a novel edit. The share
	// is an assumption, not an observed rate: no daemon traffic has been
	// recorded. It is meant to keep cache inserts (a parse, a snapshot
	// and fingerprint insert) running beside the warm hits, without
	// letting their cost dominate the median.
	novelEvery = 10
	// maxLateMS is the generator lateness (p99) past which a run is invalid.
	maxLateMS = 50
)

// headViolators are the corpus cases whose current head still violates a
// mined contract (their recurrence is open); every other head passes.
var headViolators = map[string]bool{"hdfs-observer-locations": true, "hbase-snapshot-ttl": true}

// poolReq is one prebuilt request with its known answer and the local
// sequential run's report.
type poolReq struct {
	label   string
	path    string // "/assert" or "/gate"
	body    []byte
	verdict string // known answer: PASS / VIOLATED (assert), PASS / BLOCKED (gate)
	report  string // local sequential rendering
	local   *core.AssertReport
	head    string // gates: the case head the change is diffed against
	change  string // gates: the proposed source
}

type serveState struct {
	pool  []*poolReq
	novel []*poolReq
	url   string
	hs    *http.Server
	srv   *server.Server
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx)
	_ = st.srv.Drain(ctx)
}

// localEngine is a case engine built the way the daemon builds its own:
// every ticket's semantics mined and registered.
func localEngine(cs *ticket.Case) (*core.Engine, error) {
	e := core.New()
	e.Snapshots = program.NewCache(0)
	e.Solver = smt.NewQueryCache(0)
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return nil, fmt.Errorf("%s: process %s: %w", cs.ID, tk.ID, err)
		}
	}
	return e, nil
}

func assertVerdict(rep *core.AssertReport) string {
	if rep.Counts.Violations > 0 {
		return answerViolated
	}
	return answerPass
}

func gateVerdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "BLOCKED"
}

// buildPool builds the valid request pool, the novel edits and their local
// references, checking each local verdict against the corpus timeline:
// every buggy version violates, every fixed version passes, and only the
// headViolators heads violate. Buggy versions are asserted without tests
// (some buggy versions do not compile with the suite appended).
func buildPool(seed int64, novel int) (pool, novelReqs []*poolReq, err error) {
	c := corpus.Load()
	mustJSON := func(v any) []byte {
		b, jerr := json.Marshal(v)
		if jerr != nil {
			panic(jerr)
		}
		return b
	}
	headGates := map[string]*poolReq{}
	for _, cs := range c.Cases {
		e, err := localEngine(cs)
		if err != nil {
			return nil, nil, err
		}
		head := cs.Head()
		assert := func(label, version, source string, tests []ticket.TestCase, want string) error {
			rep, err := e.Assert(source, tests)
			if err != nil && tests != nil {
				// Older versions predate parts of the current suite and do
				// not compile with it appended; assert those without tests.
				tests = nil
				rep, err = e.Assert(source, nil)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			if got := assertVerdict(rep); got != want {
				return fmt.Errorf("%s: local verdict %s, known answer %s", label, got, want)
			}
			pool = append(pool, &poolReq{label: label, path: "/assert", verdict: want, report: rep.Render(), local: rep,
				body: mustJSON(server.AssertRequest{Case: cs.ID, Version: version, Tests: tests != nil})})
			return nil
		}
		gate := func(label, change, want string) (*poolReq, error) {
			res, err := ci.GateWith(e, ci.Change{Summary: label, OldSource: head, NewSource: change}, cs.Tests, ci.GateOptions{})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			if res.Report == nil {
				return nil, nil // the change does not build with the suite: not a valid input
			}
			if got := gateVerdict(res.Pass); got != want {
				return nil, fmt.Errorf("%s: local gate %s, known answer %s", label, got, want)
			}
			return &poolReq{label: label, path: "/gate", verdict: want, report: res.Report.Render(), local: res.Report,
				head: head, change: change,
				body: mustJSON(server.GateRequest{Case: cs.ID, Change: change, Incremental: true})}, nil
		}
		for _, tk := range cs.Tickets {
			if err := assert(cs.ID+" assert "+tk.ID+":buggy", tk.ID+":buggy", tk.BuggySource, nil, answerViolated); err != nil {
				return nil, nil, err
			}
			if err := assert(cs.ID+" assert "+tk.ID+":fixed", tk.ID+":fixed", tk.FixedSource, cs.Tests, answerPass); err != nil {
				return nil, nil, err
			}
			g, err := gate(cs.ID+" gate "+tk.ID+":buggy", tk.BuggySource, "BLOCKED")
			if err != nil {
				return nil, nil, err
			}
			if g != nil {
				pool = append(pool, g)
			}
		}
		headAnswer, headGate := answerPass, "PASS"
		if headViolators[cs.ID] {
			headAnswer, headGate = answerViolated, "BLOCKED"
		}
		if err := assert(cs.ID+" assert head", "head", head, cs.Tests, headAnswer); err != nil {
			return nil, nil, err
		}
		g, err := gate(cs.ID+" gate head", head, headGate)
		if err == nil && g == nil {
			err = fmt.Errorf("%s: head does not build with its suite", cs.ID)
		}
		if err != nil {
			return nil, nil, err
		}
		headGates[cs.ID] = g
	}
	// Novel edits: a fixed-length run of trailing whitespace, spelled out
	// from the edit's number, appended to one line of a case head. Every
	// edit is distinct and no token moves, so the verdict and the report
	// are the head gate's.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < novel; i++ {
		cs := c.Cases[rng.Intn(len(c.Cases))]
		lines := strings.Split(cs.Head(), "\n")
		l := rng.Intn(len(lines))
		var pad strings.Builder
		for b := 0; b < 16; b++ {
			if (i>>b)&1 == 1 {
				pad.WriteByte('\t')
			} else {
				pad.WriteByte(' ')
			}
		}
		lines[l] += pad.String()
		change := strings.Join(lines, "\n")
		ref := headGates[cs.ID]
		novelReqs = append(novelReqs, &poolReq{label: fmt.Sprintf("%s novel edit %d", cs.ID, i), path: "/gate",
			verdict: ref.verdict, report: ref.report, local: ref.local, head: ref.head, change: change,
			body: mustJSON(server.GateRequest{Case: cs.ID, Change: change, Incremental: true})})
	}
	return pool, novelReqs, nil
}

// reply is the part of a /gate or /assert response the benchmark checks.
type reply struct {
	Verdict    string            `json:"verdict"`
	Report     string            `json:"report"`
	DurationMS float64           `json:"duration_ms"`
	Cache      server.CacheDelta `json:"cache"`
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
}

// call sends one request and checks the reply against the known answer and
// the local report (drift: it differs only in tied test selection).
func call(client *http.Client, url string, r *poolReq) (rep reply, drift bool, err error) {
	resp, err := client.Post(url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return rep, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, false, fmt.Errorf("%s: HTTP %d", r.label, resp.StatusCode)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, false, err
	}
	if rep.Verdict != r.verdict {
		return rep, false, fmt.Errorf("%s: verdict %s, known answer %s", r.label, rep.Verdict, r.verdict)
	}
	drift, err = compareReports(r.label+" daemon vs local sequential run", rep.Report, r.report)
	return rep, drift, err
}

// serveSetup builds the pool, starts a daemon on a loopback listener and
// warms it with every pool request once, sequentially.
func serveSetup(seed int64, novel int) (*serveState, error) {
	pool, novelReqs, err := buildPool(seed, novel)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Corpus: corpus.Load(), MaxConcurrent: serveConns})
	st := &serveState{pool: pool, novel: novelReqs, url: "http://" + ln.Addr().String(), srv: srv,
		hs: &http.Server{Handler: srv.Handler()}}
	go func() { _ = st.hs.Serve(ln) }()
	client := newClient()
	defer client.CloseIdleConnections()
	for _, r := range pool {
		if _, _, err := call(client, st.url, r); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

func fetchStats(client *http.Client, url string) (server.StatsResponse, error) {
	var s server.StatsResponse
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// sent is one request of the measured stream.
type sent struct {
	req             *poolReq
	due, send, done time.Time
	rep             reply
	drift           bool
	err             error
}

func runServeMix(cfg config) (*result, error) {
	total := cfg.seconds * serveRate
	st, setup, err := timeSetup(setupReps, func() (*serveState, error) {
		return serveSetup(cfg.seed, total/novelEvery+1)
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := &result{notes: []string{fmt.Sprintf("serve-mix: %d pool requests over %d cases, %d req/s from %d connections, 1 in %d novel",
		len(st.pool), len(corpus.Load().Cases), serveRate, serveConns, novelEvery)}}

	// The stream: in every block of novelEvery requests one novel edit at a
	// seeded position, the rest seeded draws from the pool.
	rng := rand.New(rand.NewSource(cfg.seed))
	reqs := make([]sent, total)
	nextNovel := 0
	for b := 0; b < total; b += novelEvery {
		at := b + rng.Intn(novelEvery)
		for k := b; k < min(b+novelEvery, total); k++ {
			if k == at {
				reqs[k].req = st.novel[nextNovel]
				nextNovel++
			} else {
				reqs[k].req = st.pool[rng.Intn(len(st.pool))]
			}
		}
	}

	client := newClient()
	defer client.CloseIdleConnections()
	before, err := fetchStats(client, st.url)
	if err != nil {
		return nil, err
	}
	// Each sender takes the next request, sleeps until it is due and sends
	// it. A request whose due time passed while both senders were busy is
	// sent at once: that wait is backlog and counts in its latency. The
	// generator's own lateness is how late an idle sender woke.
	interval := time.Second / serveRate
	var next atomic.Int64
	var lateMu sync.Mutex
	var late []float64
	var wg sync.WaitGroup
	u0 := readUsage()
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					break
				}
				r := &reqs[k]
				r.due = start.Add(time.Duration(k) * interval)
				if d := time.Until(r.due); d > 0 {
					time.Sleep(d)
					mine = append(mine, ms(time.Since(r.due)))
				}
				r.send = time.Now()
				r.rep, r.drift, r.err = call(client, st.url, r.req)
				r.done = time.Now()
				r.rep.Report = "" // checked; keep the run's live heap small
			}
			lateMu.Lock()
			late = append(late, mine...)
			lateMu.Unlock()
		}()
	}
	wg.Wait()
	use := readUsage().sub(u0)
	after, err := fetchStats(client, st.url)
	if err != nil {
		return nil, err
	}

	log := &opLog{total: use, ops: total, tailPct: 99}
	for k := range reqs {
		r := &reqs[k]
		res.attempted++
		log.wall = append(log.wall, ms(r.done.Sub(r.due)))
		res.compared++
		if r.drift {
			res.driftNote(r.req.label)
		}
		if r.err != nil {
			res.fail("request %d: %v", k, r.err)
		}
	}
	sort.Float64s(late)
	lateP99 := quantile(late, 0.99)
	if lateP99 > maxLateMS {
		res.invalid = fmt.Sprintf("generator fell behind: p99 lateness %.1f ms > %d ms", lateP99, maxLateMS)
	}
	if !cfg.trace {
		var note string
		res.metrics, note = log.endToEnd(setup)
		res.notes = append(res.notes, note)
		return res, nil
	}
	tr := serveTrace(reqs)
	res.metrics = serveLayers(tr, reqs, log, before, after)
	res.metrics["bench.late_ms_p99"] = lateP99
	checkSpans(res)
	writeTrace(cfg, tr)
	return res, nil
}

// serveTrace records each request as an op span (due to done) with its
// queueing wait and its HTTP round trip as top-level children, and the
// handler time the daemon reported inside the round trip. The children are
// built from the op's own timestamps, so bench.span_gap_pct is 0 here by
// construction and the span check cannot fail on this workload.
func serveTrace(reqs []sent) *tracer {
	t := &tracer{t0: reqs[0].due}
	for k := range reqs {
		r := &reqs[k]
		root := len(t.spans) + 1
		t.add(k, 0, "op", r.due, r.done)
		t.add(k, root, "bench.queue", r.due, r.send)
		t.add(k, root, "http.roundtrip", r.send, r.done)
		handler := time.Duration(r.rep.DurationMS * float64(time.Millisecond))
		t.add(k, root+2, "server.handler", r.done.Add(-handler), r.done)
	}
	return t
}

// serveLayers computes serve-mix's per-layer metrics. The front-end, diff
// and render layers run inside the daemon, so they are timed here, outside
// the ops, on each request's own input, as spans added to t.
func serveLayers(t *tracer, reqs []sent, log *opLog, before, after server.StatsResponse) map[string]float64 {
	n := float64(len(reqs))
	acc := map[string]float64{}
	var handler, overhead []float64
	var snapHits, snapMisses float64
	parsed := map[string]bool{}
	for k := range reqs {
		r := &reqs[k]
		handler = append(handler, r.rep.DurationMS)
		overhead = append(overhead, ms(r.done.Sub(r.send))-r.rep.DurationMS)
		c := r.rep.Cache
		acc["sched.jobs"] += float64(c.SchedJobs)
		acc["sched.executed"] += float64(c.SchedExecuted)
		acc["sched.cache_hits"] += float64(c.SchedCacheHits)
		acc["smt.queries"] += float64(c.SolverQueries)
		acc["smt.hits"] += float64(c.SolverCacheHits)
		snapHits += float64(c.SnapshotHits)
		snapMisses += float64(c.SnapshotMisses)
		t.do(k, 0, "report.render", func() { r.req.local.Render() })
		if r.req.change == "" {
			continue
		}
		t.do(k, 0, "diffutil.diff", func() { diffutil.Diff(r.req.head, r.req.change) })
		if c.SnapshotMisses > 0 && !parsed[r.req.change] {
			// The daemon compiled this novel source.
			parsed[r.req.change] = true
			t.do(k, 0, "minij.lex", func() { _, _ = minij.Lex(r.req.change) })
			u0 := readUsage()
			t.do(k, 0, "minij.parse", func() { _, _ = minij.Parse(r.req.change) })
			acc["minij.parse_alloc_mb"] += float64(readUsage().sub(u0).alloc) / (1 << 20)
			t.do(k, 0, "program.load", func() { _, _ = program.NewCache(0).Load(r.req.change) })
		}
	}
	out := finishLayers(acc, t, len(reqs), log)
	out["server.handler_ms_p50"] = median(handler)
	out["server.overhead_ms_p50"] = median(overhead)
	out["server.executed_per_req"] = acc["sched.executed"] / n
	if snapHits+snapMisses > 0 {
		out["server.snapshot_miss_ratio"] = snapMisses / (snapHits + snapMisses)
	}
	shed := func(s server.StatsResponse) uint64 { return s.Admission.RejectedQueueFull + s.Admission.RejectedQuota }
	out["server.shed"] = float64(shed(after)-shed(before)) / n
	out["smt.solves"] = float64(after.Solver.Solves-before.Solver.Solves) / n
	out["smt.nodes"] = float64(after.Solver.Nodes-before.Solver.Nodes) / n
	out["program.compiles"] = float64(after.Snapshot.Compiles-before.Snapshot.Compiles) / n
	return out
}
