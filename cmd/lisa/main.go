// Command lisa is the CLI front end of the pipeline: it infers low-level
// semantics from failure tickets, asserts registered contracts over a
// codebase, and gates proposed changes.
//
// Usage:
//
//	lisa stats
//	    Print the study corpus statistics.
//
//	lisa list
//	    List the corpus cases and their tickets.
//
//	lisa infer -case <id> [-ticket <id>]
//	    Run semantics inference on a corpus ticket and print the recovered
//	    contracts with the reasoning trace.
//
//	lisa infer -buggy <file> -fixed <file> [-title <text>]
//	    Run inference on a patch given as two MiniJ source files.
//
//	lisa assert -case <id> [-version latest|head|<ticket-id>:buggy|<ticket-id>:fixed] [-tests]
//	    Register the rules inferred from every ticket of the case and
//	    assert them over the chosen version (default: head).
//
//	lisa assert -rules <case-id> -source <file> [-tests]
//	    Assert the case's rules over an arbitrary MiniJ source file.
//	    Assertions run on the parallel scheduler with a GOMAXPROCS-wide
//	    pool by default; -workers N overrides the width, and -workers 1
//	    selects the sequential engine loop (the byte-identity baseline).
//
//	lisa gate -case <id> -change <file> [-workers N] [-incremental]
//	    Run the CI gate for a proposed full-source change against the
//	    case's registered rules. Exits 1 when the change is blocked.
//	    -workers overrides the scheduler pool width (default GOMAXPROCS);
//	    -incremental first primes the scheduler's fingerprint cache on the
//	    current head, then gates the change so only impacted jobs
//	    re-execute (the summary reports the cache-hit split).
//
//	lisa assert|gate ... -shards N
//	    Partition the run's semantics across N child lisa processes by
//	    stable hash, all sharing one on-disk store (a temporary directory
//	    unless -store is given). Each child executes only its shard and
//	    writes results through; the parent then re-runs the full job set
//	    against the warmed store — every job served from the disk tier —
//	    and prints the usual report, byte-identical to a sequential run,
//	    plus a per-shard wall-clock ledger. Incompatible with -remote.
//
//	lisa author -spec <file> -source <file>
//	    Compile developer-authored semantics from a structured spec file
//	    (§5's explicit-encoding interface) and assert them over a source.
//
//	lisa export -case <id>
//	    Export the rules mined from a case in spec syntax, for developer
//	    review and editing.
//
//	lisa serve [-addr HOST:PORT] [-workers N] [-watch DIR]...
//	    Run the long-lived assertion daemon: an HTTP/JSON API over the
//	    corpus with process-lifetime snapshot, fingerprint, and solver
//	    caches, a polling file watcher that pre-warms changed sources, and
//	    a bounded request history for audit (/gate, /assert, /history,
//	    /stats, /watch, /healthz). SIGINT/SIGTERM drain gracefully.
//
//	lisa gate -remote URL ... / lisa assert -remote URL ...
//	    Run gate or assert through a daemon at URL instead of in-process.
//	    A cold client against a warm server skips the whole front end; the
//	    report and exit code are identical to the local run. Transient
//	    daemon failures (connection refused, timeout, 503-drain, overload
//	    shed) are retried -remote-retries times (default 3) under seeded
//	    jittered exponential backoff honoring the server's Retry-After;
//	    -remote-timeout bounds all attempts together (default 0 = none).
//	    If the daemon stays unreachable, keeps timing out, or is draining
//	    past the retry budget, the client fails over to in-process
//	    execution (disable with -remote-failover=false) — the printed
//	    report is byte-identical to a pure-local run, and a shared -store
//	    still applies. With failover off, the exit code names the failure:
//	    4 connection failed, 5 timed out, 6 server draining, 7 server
//	    overloaded (overload never fails over — the daemon is alive).
//	    -remote-token sets the client identity the daemon's per-token
//	    admission quotas key on.
//
//	lisa assert|gate|serve ... -store DIR
//	    Back the hot caches (program snapshots, solver verdicts, job
//	    fingerprints) with a crash-safe on-disk store at DIR, shared
//	    across processes: a cold invocation over a warm store replays
//	    prior results instead of recomputing them, and the report stays
//	    byte-identical to a store-less run. Two processes may share one
//	    store directory concurrently.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"lisa/internal/ci"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/experiments"
	"lisa/internal/infer"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/server"
	"lisa/internal/shard"
	"lisa/internal/smt"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// attachStore opens (creating if needed) the on-disk cache store at dir and
// wires it behind private snapshot and solver caches on the engine, so a
// cold process starts warm from a previous run's results. The returned
// cleanup flushes the write-behind queue and releases the store lock; it is
// idempotent so the blocking-verdict paths can flush explicitly before
// os.Exit (which skips deferred calls) while the normal return still runs
// the deferred copy.
func attachStore(dir string, e *core.Engine) (*store.Store, func(), error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	snaps := program.NewCache(0)
	snaps.SetStore(st)
	e.Snapshots = snaps
	e.Solver = smt.NewQueryCache(0)
	e.Solver.SetStore(st)
	var once sync.Once
	return st, func() {
		once.Do(func() {
			st.Flush()
			st.Close()
		})
	}, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats()
	case "list":
		err = runList()
	case "infer":
		err = runInfer(os.Args[2:])
	case "assert":
		err = runAssert(os.Args[2:])
	case "gate":
		err = runGate(os.Args[2:])
	case "author":
		err = runAuthor(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lisa: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisa:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a top-level failure to the process exit status. Remote
// transport failures carry distinct codes so scripts can branch on what
// actually went wrong instead of parsing error text: 4 connection failed,
// 5 timed out, 6 server draining, 7 server overloaded. Everything else —
// including remote HTTP-level rejections, where the request itself is
// wrong — stays the historical 1. (Blocked changes and violations exit 1
// before reaching here.)
func exitCode(err error) int {
	var re *server.RemoteError
	if errors.As(err, &re) {
		switch re.Kind {
		case server.RemoteConnect:
			return 4
		case server.RemoteTimeout:
			return 5
		case server.RemoteDrain:
			return 6
		case server.RemoteOverload:
			return 7
		}
	}
	return 1
}

// remotePolicy derives the -remote resilience posture from the flags:
// -remote-retries attempts beyond the first, the default backoff curve,
// an overall deadline from -remote-timeout, and — when the run carries a
// -run-timeout budget — a per-attempt deadline of that budget plus a
// second of transport slack (one attempt is one server-side run, which
// the daemon bounds with the same budget).
func remotePolicy(retries int, overall, runTimeout time.Duration) server.RetryPolicy {
	p := server.DefaultRetryPolicy()
	p.Retries = retries
	if runTimeout > 0 {
		p.AttemptTimeout = runTimeout + time.Second
	}
	p.OverallTimeout = overall
	return p
}

// failoverable reports whether a remote failure should fall back to
// in-process execution: failover is enabled and the daemon was
// unreachable, timed out, or draining. Overload does not fail over — the
// daemon is alive and asked us to back off — and HTTP-level failures mean
// the request itself is wrong, which local execution would only reproduce.
func failoverable(err error, enabled bool) bool {
	if err == nil || !enabled {
		return false
	}
	var re *server.RemoteError
	if !errors.As(err, &re) {
		return false
	}
	switch re.Kind {
	case server.RemoteConnect, server.RemoteTimeout, server.RemoteDrain:
		return true
	}
	return false
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lisa <stats|list|infer|assert|gate|author|export|serve> [flags]")
	fmt.Fprintln(os.Stderr, "run 'go doc lisa/cmd/lisa' for details")
}

func runAuthor(args []string) error {
	fs := flag.NewFlagSet("author", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to the structured semantics spec")
	sourcePath := fs.String("source", "", "path to the MiniJ source to assert over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" || *sourcePath == "" {
		return fmt.Errorf("need -spec and -source")
	}
	specText, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	sems, err := contract.ParseSpec(string(specText))
	if err != nil {
		return err
	}
	source, err := os.ReadFile(*sourcePath)
	if err != nil {
		return err
	}
	e := core.New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			return err
		}
		fmt.Printf("registered %s\n", sem)
	}
	rep, err := e.Assert(string(source), nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nverdicts: %d verified, %d violations, %d unknown\n",
		rep.Counts.Verified, rep.Counts.Violations, rep.Counts.Unknown)
	for _, v := range rep.Violations() {
		fmt.Println("VIOLATION", v)
	}
	if rep.Counts.Violations > 0 {
		os.Exit(1)
	}
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cs := corpus.Load().Get(*caseID)
	if cs == nil {
		return fmt.Errorf("unknown case %q (try 'lisa list')", *caseID)
	}
	e := core.New()
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return err
		}
	}
	fmt.Print(contract.FormatSpec(e.Registry.All()))
	return nil
}

func runStats() error {
	c := corpus.Load()
	out, err := experiments.Run("study", c)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func runList() error {
	c := corpus.Load()
	for _, cs := range c.Cases {
		fmt.Printf("%-26s %-13s %s\n", cs.ID, cs.System, cs.Feature)
		for _, tk := range cs.Tickets {
			fmt.Printf("    %-10s %s\n", tk.ID, tk.Title)
		}
		if cs.Latest != "" {
			fmt.Printf("    %-10s (head carries unguarded paths)\n", "latest")
		}
	}
	return nil
}

func runInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id")
	ticketID := fs.String("ticket", "", "ticket id within the case (default: first)")
	buggyPath := fs.String("buggy", "", "path to the pre-patch MiniJ source")
	fixedPath := fs.String("fixed", "", "path to the post-patch MiniJ source")
	title := fs.String("title", "user-supplied patch", "ticket title for file mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tk *ticket.Ticket
	switch {
	case *buggyPath != "" && *fixedPath != "":
		buggy, err := os.ReadFile(*buggyPath)
		if err != nil {
			return err
		}
		fixed, err := os.ReadFile(*fixedPath)
		if err != nil {
			return err
		}
		tk = &ticket.Ticket{
			ID: "USER-1", Title: *title,
			BuggySource: string(buggy), FixedSource: string(fixed),
		}
	case *caseID != "":
		cs := corpus.Load().Get(*caseID)
		if cs == nil {
			return fmt.Errorf("unknown case %q (try 'lisa list')", *caseID)
		}
		tk = cs.Tickets[0]
		if *ticketID != "" {
			tk = nil
			for _, cand := range cs.Tickets {
				if cand.ID == *ticketID {
					tk = cand
				}
			}
			if tk == nil {
				return fmt.Errorf("case %s has no ticket %q", *caseID, *ticketID)
			}
		}
	default:
		return fmt.Errorf("need -case or -buggy/-fixed")
	}

	pa := &infer.PatchAnalyzer{Generalize: true}
	res, err := pa.Infer(tk)
	if err != nil {
		return err
	}
	fmt.Printf("ticket %s: %s\n\nhigh-level semantics:\n  %s\n\nlow-level semantics:\n", tk.ID, tk.Title, res.HighLevel)
	for _, sem := range res.Semantics {
		fmt.Printf("  %s\n    %s\n", sem, sem.Description)
		cc := infer.CrossCheck(sem, tk)
		fmt.Printf("    cross-check: grounded=%v confirmed=%v (%s)\n", cc.Grounded, cc.Confirmed, cc.Reason)
	}
	fmt.Println("\nreasoning:")
	for _, r := range res.Reasoning {
		fmt.Println("  -", r)
	}
	return nil
}

func runAssert(args []string) error {
	fs := flag.NewFlagSet("assert", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id (rules source and default target)")
	rulesID := fs.String("rules", "", "corpus case id to take rules from (with -source)")
	version := fs.String("version", "head", "target version: head, latest, or <ticket-id>:buggy|fixed")
	sourcePath := fs.String("source", "", "path to a MiniJ source file to assert over")
	withTests := fs.Bool("tests", false, "also replay similarity-selected tests")
	workers := fs.Int("workers", 0, "scheduler pool width; 0 = GOMAXPROCS (the default), 1 = the sequential engine loop")
	shards := fs.Int("shards", 1, "split the assertion across N child processes sharing one store; the parent then merges from the warmed store and prints the usual report")
	shardIndex := fs.Int("shard-index", -1, "internal: run as shard child N of -shards (set by the parent; executes only that shard's semantics and suppresses the report)")
	storeDir := fs.String("store", "", "back the snapshot, solver, and fingerprint caches with an on-disk store at this directory (created if missing)")
	deepVerify := fs.Int("deep-verify", 0, "with -store: deep-verify every Nth snapshot restore by re-parsing the source and comparing canons (0 = default sampling, 1 = every restore, i.e. the pre-v2 behavior)")
	remote := fs.String("remote", "", "assert through a running lisa serve daemon at this base URL instead of in-process")
	remoteRetries := fs.Int("remote-retries", server.DefaultRemoteRetries, "with -remote: retries after a transient daemon failure (connection refused, timeout, drain, overload)")
	remoteTimeout := fs.Duration("remote-timeout", 0, "with -remote: overall deadline across all attempts and backoff sleeps (0 = none)")
	remoteFailover := fs.Bool("remote-failover", true, "with -remote: fall back to in-process execution when the daemon stays unreachable, times out, or drains past the retry budget")
	remoteToken := fs.String("remote-token", "", "with -remote: client identity for the daemon's per-token admission quotas")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := *caseID
	if id == "" {
		id = *rulesID
	}
	if id == "" {
		return fmt.Errorf("need -case or -rules")
	}
	var shardResults []shard.Result
	var mergeStart time.Time
	cleanupShards := func() {}
	defer func() { cleanupShards() }()
	if *shards > 1 && *shardIndex < 0 {
		if *remote != "" {
			return fmt.Errorf("-shards is incompatible with -remote")
		}
		// Warm handoff: resolve the target up front and hand the children a
		// store that already holds its parsed snapshots — each child then
		// restores by binary-AST decode instead of a full parse.
		cs := corpus.Load().Get(id)
		if cs == nil {
			return fmt.Errorf("unknown case %q (try 'lisa list')", id)
		}
		target, terr := resolveAssertTarget(cs, *sourcePath, *version, id)
		if terr != nil {
			return terr
		}
		warm := []string{target}
		if *withTests {
			warm = append(warm, ticket.JoinTests(target, cs.Tests))
		}
		results, dir, cleanup, err := spawnShards("assert", args, *shards, *storeDir, warm...)
		if err != nil {
			return err
		}
		cleanupShards = cleanup
		shardResults = results
		*storeDir = dir
		mergeStart = time.Now()
	}
	if *remote != "" {
		req := server.AssertRequest{Case: id, Version: *version, Tests: *withTests}
		if *sourcePath != "" {
			data, err := os.ReadFile(*sourcePath)
			if err != nil {
				return err
			}
			req.Source = string(data)
		}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				req.Workers = *workers
			}
		})
		err := remoteAssert(*remote, req, remotePolicy(*remoteRetries, *remoteTimeout, 0), *remoteToken)
		if !failoverable(err, *remoteFailover) {
			return err
		}
		// Fall through to the local path below — the same code a store-less
		// (or -store-backed) local invocation runs, so the printed report is
		// byte-identical to one.
		fmt.Fprintf(os.Stderr, "lisa: %v; failing over to local execution\n", err)
	}
	cs := corpus.Load().Get(id)
	if cs == nil {
		return fmt.Errorf("unknown case %q (try 'lisa list')", id)
	}

	e := core.New()
	var st *store.Store
	flushStore := func() {}
	if *storeDir != "" {
		s, cleanup, err := attachStore(*storeDir, e)
		if err != nil {
			return err
		}
		defer cleanup()
		flushStore = cleanup
		st = s
		e.Snapshots.SetDeepVerifyEvery(*deepVerify)
	}
	for _, tk := range cs.Tickets {
		rep, err := e.ProcessTicket(tk)
		if err != nil {
			return fmt.Errorf("process %s: %w", tk.ID, err)
		}
		for _, sem := range rep.Registered {
			fmt.Printf("registered %s\n", sem)
		}
		for _, sem := range rep.AlreadyKnown {
			fmt.Printf("ticket %s re-derives known rule %s\n", tk.ID, sem.ID)
		}
	}

	target, err := resolveAssertTarget(cs, *sourcePath, *version, id)
	if err != nil {
		return err
	}

	var tests []ticket.TestCase
	if *withTests {
		tests = cs.Tests
	}
	var rep *core.AssertReport
	if *workers != 1 || st != nil || *shardIndex >= 0 {
		s := sched.New()
		s.Cache().SetStore(st)
		opts := sched.Options{Workers: *workers}
		if *shardIndex >= 0 {
			opts.ShardIndex = *shardIndex
			opts.ShardCount = *shards
		}
		var stats *sched.Stats
		rep, stats, err = s.Assert(e, target, tests, opts)
		if err != nil {
			return err
		}
		if *shardIndex >= 0 {
			// Child mode: this process only warms the shared store with its
			// shard's results. The parent's merge run owns the report and
			// the exit code, so print a one-line summary and succeed.
			flushStore()
			fmt.Printf("shard %d/%d: %d jobs (%d executed, %d cache hits), %d semantics elsewhere\n",
				*shardIndex, *shards, stats.Jobs, stats.Executed, stats.CacheHits, stats.ShardSkippedSemantics)
			return nil
		}
		fmt.Printf("\nscheduled %d jobs on %d workers (%d site, %d dynamic, %d structural)\n",
			stats.Jobs, stats.Workers, stats.SiteJobs, stats.DynamicJobs, stats.StructuralJobs)
		if stats.DiskHits > 0 {
			fmt.Printf("store: %d job(s) served from the disk tier\n", stats.DiskHits)
		}
		if stats.SnapshotRestores > 0 {
			fmt.Printf("snapshots: %d restored from the store (%d decoded, %d deep-verified)\n",
				stats.SnapshotRestores, stats.SnapshotRestoresDecoded, stats.SnapshotRestoresDeepVerified)
		}
		if shardResults != nil {
			fmt.Print(shard.Ledger(shardResults, time.Since(mergeStart)))
		}
	} else {
		rep, err = e.Assert(target, tests)
		if err != nil {
			return err
		}
	}
	fmt.Printf("\nverdicts: %d verified, %d violations, %d unknown, %d uncovered\n\n",
		rep.Counts.Verified, rep.Counts.Violations, rep.Counts.Unknown, rep.Counts.Uncovered)
	for _, sr := range rep.Semantics {
		for _, v := range sr.Structural {
			fmt.Printf("VIOLATION [%s] %s\n", sr.Semantic.ID, v)
		}
		for _, site := range sr.Sites {
			for _, p := range site.Paths {
				mark := "  "
				if p.Verdict == concolic.VerdictViolation {
					mark = "!!"
				}
				fmt.Printf("%s %-9s %s  cond={%s}", mark, p.Verdict, site.Site, p.Static.Cond)
				if len(p.CoveredBy) > 0 {
					fmt.Printf("  covered by %s", strings.Join(p.CoveredBy, ","))
				}
				fmt.Println()
			}
		}
		if !sr.SanityOK {
			fmt.Printf("WARN [%s] sanity check failed: no verified path anywhere\n", sr.Semantic.ID)
		}
	}
	if rep.Counts.Violations > 0 {
		flushStore()
		cleanupShards()
		os.Exit(1)
	}
	return nil
}

// resolveAssertTarget picks the system source an assert run targets:
// -source wins, then -version selects among the case's recorded versions.
func resolveAssertTarget(cs *ticket.Case, sourcePath, version, id string) (string, error) {
	switch {
	case sourcePath != "":
		data, err := os.ReadFile(sourcePath)
		if err != nil {
			return "", err
		}
		return string(data), nil
	case version == "head":
		return cs.Head(), nil
	case version == "latest":
		if cs.Latest == "" {
			return "", fmt.Errorf("case %s has no latest head", id)
		}
		return cs.Latest, nil
	}
	parts := strings.SplitN(version, ":", 2)
	if len(parts) != 2 {
		return "", fmt.Errorf("bad -version %q", version)
	}
	var target string
	for _, tk := range cs.Tickets {
		if tk.ID != parts[0] {
			continue
		}
		if parts[1] == "buggy" {
			target = tk.BuggySource
		} else {
			target = tk.FixedSource
		}
	}
	if target == "" {
		return "", fmt.Errorf("no version %q in case %s", version, id)
	}
	return target, nil
}

func runGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id providing the registered rules")
	changePath := fs.String("change", "", "path to the proposed full MiniJ source")
	summary := fs.String("summary", "proposed change", "change summary for the gate log")
	workers := fs.Int("workers", 0, "scheduler pool width; 0 = GOMAXPROCS (the default), 1 = the sequential engine loop")
	shards := fs.Int("shards", 1, "split the gate's assertion across N child processes sharing one store; the parent then merges from the warmed store and prints the gate log")
	shardIndex := fs.Int("shard-index", -1, "internal: run as shard child N of -shards (set by the parent; executes only that shard's semantics and suppresses the gate log)")
	incremental := fs.Bool("incremental", false, "prime the fingerprint cache on the current head, then gate only what the change impacts")
	failClosed := fs.Bool("fail-closed", true, "block the change when any contract's assertion is INCONCLUSIVE (degraded by a deadline, budget, or contained crash)")
	failOpen := fs.Bool("fail-open", false, "downgrade INCONCLUSIVE outcomes to warnings and let the change pass; overrides -fail-closed")
	runTimeout := fs.Duration("run-timeout", 0, "wall-clock deadline for the whole assertion run (0 = none)")
	jobTimeout := fs.Duration("job-timeout", 0, "deadline per assertion job (0 = none)")
	solverNodes := fs.Int("solver-nodes", 0, "DPLL node ceiling per SMT query (0 = default)")
	stepBudget := fs.Int("step-budget", 0, "interpreter statement ceiling per test replay (0 = default)")
	storeDir := fs.String("store", "", "back the snapshot, solver, and fingerprint caches with an on-disk store at this directory (created if missing)")
	deepVerify := fs.Int("deep-verify", 0, "with -store: deep-verify every Nth snapshot restore by re-parsing the source and comparing canons (0 = default sampling, 1 = every restore, i.e. the pre-v2 behavior)")
	remote := fs.String("remote", "", "gate through a running lisa serve daemon at this base URL (e.g. http://127.0.0.1:7333) instead of in-process")
	remoteRetries := fs.Int("remote-retries", server.DefaultRemoteRetries, "with -remote: retries after a transient daemon failure (connection refused, timeout, drain, overload)")
	remoteTimeout := fs.Duration("remote-timeout", 0, "with -remote: overall deadline across all attempts and backoff sleeps (0 = none)")
	remoteFailover := fs.Bool("remote-failover", true, "with -remote: fall back to in-process execution when the daemon stays unreachable, times out, or drains past the retry budget")
	remoteToken := fs.String("remote-token", "", "with -remote: client identity for the daemon's per-token admission quotas")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *caseID == "" || *changePath == "" {
		return fmt.Errorf("need -case and -change")
	}
	data, err := os.ReadFile(*changePath)
	if err != nil {
		return err
	}
	var shardResults []shard.Result
	var mergeStart time.Time
	cleanupShards := func() {}
	defer func() { cleanupShards() }()
	if *shards > 1 && *shardIndex < 0 {
		if *remote != "" {
			return fmt.Errorf("-shards is incompatible with -remote")
		}
		// Warm handoff: every version a gate child will load — head and
		// proposed change, bare and with the test suite appended — goes
		// into the shared store parsed, so children restore parse-free.
		cs := corpus.Load().Get(*caseID)
		if cs == nil {
			return fmt.Errorf("unknown case %q", *caseID)
		}
		warm := []string{
			cs.Head(), ticket.JoinTests(cs.Head(), cs.Tests),
			string(data), ticket.JoinTests(string(data), cs.Tests),
		}
		results, dir, cleanup, serr := spawnShards("gate", args, *shards, *storeDir, warm...)
		if serr != nil {
			return serr
		}
		cleanupShards = cleanup
		shardResults = results
		*storeDir = dir
		mergeStart = time.Now()
	}
	if *remote != "" {
		req := server.GateRequest{
			Case:        *caseID,
			Change:      string(data),
			Summary:     *summary,
			Incremental: *incremental,
			FailOpen:    *failOpen || !*failClosed,
		}
		// The daemon picks its own pool width unless -workers was given
		// explicitly (both sides default to GOMAXPROCS, but the daemon's
		// operator may have configured a different width).
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers":
				req.Workers = *workers
			case "run-timeout", "job-timeout", "solver-nodes", "step-budget":
				req.Budget = &server.BudgetSpec{
					RunTimeoutMS: runTimeout.Milliseconds(),
					JobTimeoutMS: jobTimeout.Milliseconds(),
					SolverNodes:  *solverNodes,
					StepBudget:   *stepBudget,
				}
			}
		})
		err := remoteGate(*remote, req, remotePolicy(*remoteRetries, *remoteTimeout, *runTimeout), *remoteToken)
		if !failoverable(err, *remoteFailover) {
			return err
		}
		// Fall through to the local gate below — the same code a pure-local
		// invocation runs, so the printed gate log is byte-identical to one,
		// and a shared -store still applies.
		fmt.Fprintf(os.Stderr, "lisa: %v; failing over to local execution\n", err)
	}
	cs := corpus.Load().Get(*caseID)
	if cs == nil {
		return fmt.Errorf("unknown case %q", *caseID)
	}
	e := core.New()
	e.Budget = core.Budget{
		RunTimeout:  *runTimeout,
		JobTimeout:  *jobTimeout,
		SolverNodes: *solverNodes,
		StepBudget:  *stepBudget,
	}
	var st *store.Store
	flushStore := func() {}
	if *storeDir != "" {
		s, cleanup, err := attachStore(*storeDir, e)
		if err != nil {
			return err
		}
		defer cleanup()
		flushStore = cleanup
		st = s
		e.Snapshots.SetDeepVerifyEvery(*deepVerify)
	}
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return err
		}
	}
	opts := ci.GateOptions{Workers: *workers, Incremental: *incremental, FailOpen: *failOpen || !*failClosed}
	if *shardIndex >= 0 {
		opts.ShardIndex = *shardIndex
		opts.ShardCount = *shards
	}
	if *workers != 1 || *incremental || st != nil || *shardIndex >= 0 {
		opts.Scheduler = sched.New()
		opts.Scheduler.Cache().SetStore(st)
	}
	if *incremental && opts.Scheduler != nil {
		// Warm the cache on the current head so the gate re-executes only
		// the jobs the change impacts.
		if _, _, err := opts.Scheduler.Assert(e, cs.Head(), cs.Tests, sched.Options{
			Workers:    *workers,
			ShardIndex: opts.ShardIndex,
			ShardCount: opts.ShardCount,
		}); err != nil {
			return fmt.Errorf("priming cache on head: %w", err)
		}
	}
	res, err := ci.GateWith(e, ci.Change{
		Summary:   *summary,
		OldSource: cs.Head(),
		NewSource: string(data),
	}, cs.Tests, opts)
	if err != nil {
		return err
	}
	if *shardIndex >= 0 {
		// Child mode: the point was warming the shared store; the parent's
		// merge gate owns the log and the exit code.
		flushStore()
		fmt.Printf("shard %d/%d: gate pass=%v (report suppressed; parent merges)\n", *shardIndex, *shards, res.Pass)
		return nil
	}
	if shardResults != nil {
		fmt.Print(shard.Ledger(shardResults, time.Since(mergeStart)))
	}
	fmt.Print(res.Summary())
	if !res.Pass {
		flushStore()
		cleanupShards()
		os.Exit(1)
	}
	return nil
}
