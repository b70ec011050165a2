package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"stance"
	"stance/internal/comm"
	"stance/internal/order"
)

// sessionInput is one session workload's seeded input: the graph, the
// session options and the fixed script one round runs. Every round
// builds a fresh session, runs the same script and checks the same
// oracle result, so a run is a whole number of identical rounds.
type sessionInput struct {
	g         *stance.Graph
	procs     int
	orderName string
	fields    int
	// iters per round, in Run segments of seg iterations.
	iters, seg int
	transport  string
	// opts returns a round's options and, when they run it on a fresh
	// simulated clock, that clock.
	opts func() (opts []stance.Option, clk *stance.SimClock)
	// adaptive rounds must see remaps and shrink/grow epochs.
	adaptive bool
	// virtualWall is the first round's virtual makespan on a simulated
	// clock; later rounds must repeat it exactly.
	virtualWall float64
}

// sessionRun accumulates what the rounds of one run measured.
type sessionRun struct {
	setup []float64 // NewSession wall seconds per round
	lat   []float64 // Run segment host seconds
	// roundRate is each round's element updates per Run second.
	roundRate []float64
	// setupCPU, opCPU and roundCPU are the process CPU seconds of each
	// NewSession, each Run segment and each round's segments together.
	setupCPU, opCPU, roundCPU []float64
	rounds                    int
	iters                     int

	// Traced-run accounting, summed over every segment.
	overhead        time.Duration
	compute, commT  []time.Duration
	exec            stance.ExecStats
	msgs, bytes     int64
	tcp             stance.TransportStats
	checks, remaps  int
	checkUS         []float64
	epochs          int
	moved           int64
	epochMS         []float64
	mallocs, allocB uint64
	virtualWall     []float64
	newWeights      [][]float64
}

// runSession drives rounds until the measured time is used up and
// returns the outcome. The last round's session stays open for the
// live-heap reading and, in a traced run, the layer probes.
func runSession(ctx context.Context, rc runConfig, in *sessionInput) (*outcome, error) {
	tr := rc.tr
	perm, err := orderPerm(in.orderName, in.g)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(in.g.Xadj, in.g.Adj, perm)
	if err != nil {
		return nil, err
	}
	want := make([][]float64, in.fields)
	for f := range want {
		want[f] = orc.run(f, in.iters)
	}
	sr := &sessionRun{compute: make([]time.Duration, in.procs), commT: make([]time.Duration, in.procs)}
	out := &outcome{layers: map[string]float64{}}
	// One unmeasured warm-up round lets lazy set-up (code paths, pools,
	// the heap's first growth) finish before timing.
	ws, err := in.round(ctx, nil, orc, want, &sessionRun{}, true)
	if ws != nil {
		ws.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	start := time.Now()
	var last *stance.Session
	for time.Since(start) < rc.seconds {
		if last != nil {
			last.Close()
			last = nil
		}
		segs := (in.iters + in.seg - 1) / in.seg
		out.attempted += segs
		s, err := in.round(ctx, tr, orc, want, sr, false)
		switch {
		case errors.Is(err, errWrong):
			out.failed += segs
			out.wrong += segs
		case err != nil:
			fmt.Fprintf(os.Stderr, "round failed: %v\n", err)
			out.failed += segs
		}
		last = s
	}
	if last == nil {
		return nil, fmt.Errorf("no round completed")
	}
	heap := heapMB()
	if tr != nil {
		if err := sessionProbes(ctx, tr, in, perm, last, sr, out.layers); err != nil {
			last.Close()
			return nil, err
		}
	}
	last.Close()
	segUpdates := float64(in.g.N * in.fields * in.seg)
	// A round's time is read on the session's clock: the exact virtual
	// makespan on a simulated one, process CPU time on the real one.
	roundS := median(sr.roundCPU)
	if in.virtualWall != 0 {
		roundS = median(sr.virtualWall)
	}
	out.e2e = map[string]float64{
		"setup_s":      median(sr.setupCPU),
		"round_s":      roundS,
		"op_p50_ms":    1e3 * quantile(sr.opCPU, 0.5),
		"op_p95_ms":    1e3 * quantile(sr.opCPU, 0.95),
		"live_heap_mb": heap,
	}
	out.layers["bench.wall_setup_s"] = median(sr.setup)
	out.layers["bench.wall_updates_per_s"] = median(sr.roundRate)
	out.layers["bench.wall_op_p50_ms"] = 1e3 * quantile(sr.lat, 0.5)
	out.layers["bench.wall_op_p95_ms"] = 1e3 * quantile(sr.lat, 0.95)
	out.layers["bench.wall_ops_per_s"] = median(sr.roundRate) / segUpdates
	sessionLayers(in, sr, out.layers)
	return out, nil
}

// errWrong marks a round whose output missed the oracle.
var errWrong = errors.New("output does not match the oracle")

// round builds a session, runs the script, and checks the result. It
// returns the session still open, or nil when it could not be built.
func (in *sessionInput) round(ctx context.Context, tr *tracer, orc *oracle, want [][]float64, sr *sessionRun, warm bool) (*stance.Session, error) {
	opts, clk := in.opts()
	rid := tr.begin("bench", "round", sr.rounds, -1, 0)
	defer tr.end(rid)
	// The previous round's garbage is collected before set-up, not
	// during it.
	runtime.GC()
	sid := tr.begin("session", "NewSession", sr.rounds, rid, 0)
	t0, c0 := time.Now(), cpuTime()
	s, err := stance.NewSession(ctx, in.g, in.procs, opts...)
	d, dc := time.Since(t0), cpuTime()-c0
	tr.end(sid)
	if err != nil {
		return nil, fmt.Errorf("NewSession: %w", err)
	}
	sr.setup = append(sr.setup, d.Seconds())
	sr.setupCPU = append(sr.setupCPU, dc.Seconds())
	// Collect the set-up's garbage now, not during the first segments.
	runtime.GC()
	var roundTime, roundCPU float64
	var v0 time.Time
	if clk != nil {
		v0 = clk.Now()
	}
	var items int64
	var ms0, ms1 runtime.MemStats
	remaps, shrinks, grows := 0, 0, 0
	for done := 0; done < in.iters; {
		n := in.seg
		if done+n > in.iters {
			n = in.iters - done
		}
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		id := tr.begin("session", "Run", sr.rounds, rid, 0)
		t, c := time.Now(), cpuTime()
		rep, err := s.Run(n)
		lat, cl := time.Since(t), cpuTime()-c
		tr.end(id)
		if err != nil {
			return s, fmt.Errorf("Run: %w", err)
		}
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			sr.mallocs += ms1.Mallocs - ms0.Mallocs
			sr.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		}
		done += n
		sr.lat = append(sr.lat, lat.Seconds())
		sr.opCPU = append(sr.opCPU, cl.Seconds())
		roundTime += lat.Seconds()
		roundCPU += cl.Seconds()
		sr.iters += n
		sr.account(rep)
		for _, r := range rep.Ranks {
			items += r.Items
		}
		remaps += len(rep.Remaps())
		for _, ev := range rep.Members {
			if len(ev.Retired) > 0 {
				shrinks++
			}
			if len(ev.Admitted) > 0 {
				grows++
			}
		}
	}
	sr.roundRate = append(sr.roundRate, float64(in.g.N*in.fields*in.iters)/roundTime)
	sr.roundCPU = append(sr.roundCPU, roundCPU)
	var virtualWall float64
	if clk != nil {
		virtualWall = clk.Now().Sub(v0).Seconds()
		sr.virtualWall = append(sr.virtualWall, virtualWall)
	}
	if !warm {
		sr.rounds++
	}
	vid := tr.begin("bench", "verify", sr.rounds, rid, 0)
	defer tr.end(vid)
	if err := checkItems("round", items, in.g.N, in.fields, in.iters); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return s, errWrong
	}
	if in.adaptive && (remaps == 0 || shrinks == 0 || grows == 0) {
		fmt.Fprintf(os.Stderr, "adaptive round: %d remaps, %d shrinks, %d grows: the scripted environment did not act\n",
			remaps, shrinks, grows)
		return s, errWrong
	}
	if clk != nil {
		// Virtual time makes the modelled makespan exact: every round of
		// the same script must take the same virtual time.
		if in.virtualWall == 0 {
			in.virtualWall = virtualWall
		} else if virtualWall != in.virtualWall {
			fmt.Fprintf(os.Stderr, "virtual makespan %v differs from the first round's %v\n", virtualWall, in.virtualWall)
			return s, errWrong
		}
	}
	for f := 0; f < in.fields; f++ {
		got, err := gatherField(ctx, s, f)
		if err != nil {
			return s, fmt.Errorf("gather field %d: %w", f, err)
		}
		if err := orc.check(fmt.Sprintf("field %d", f), got, want[f], f); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return s, errWrong
		}
	}
	return s, nil
}

// account folds one Run's report into the traced-run totals.
func (sr *sessionRun) account(rep *stance.RunReport) {
	var maxBusy time.Duration
	for r, u := range rep.Ranks {
		if r < len(sr.compute) {
			sr.compute[r] += u.Compute
			sr.commT[r] += u.Comm
		}
		if b := u.Compute + u.Comm; b > maxBusy {
			maxBusy = b
		}
	}
	sr.overhead += rep.Wall - maxBusy
	sr.exec.Add(rep.Exec)
	sr.msgs += rep.Msgs
	sr.bytes += rep.Bytes
	if rep.Transport != nil {
		sr.tcp.Add(*rep.Transport)
	}
	for _, ev := range rep.Checks {
		sr.checks++
		sr.checkUS = append(sr.checkUS, float64(ev.Decision.CheckTime.Nanoseconds())/1e3)
		if ev.Decision.Remapped {
			sr.remaps++
			sr.newWeights = append(sr.newWeights, ev.Decision.NewWeights)
		}
	}
	for _, ev := range rep.Members {
		sr.epochs++
		sr.moved += ev.MovedBytes
		sr.epochMS = append(sr.epochMS, float64(ev.Duration.Nanoseconds())/1e6)
	}
}

// gatherField assembles field f on rank 0 in transformed order. Only
// the active ranks take part; rank 0 is always active.
func gatherField(ctx context.Context, s *stance.Session, f int) ([]float64, error) {
	_, active := s.Membership()
	in := make(map[int]bool, len(active))
	for _, r := range active {
		in[r] = true
	}
	var out []float64
	err := s.World().SPMD(ctx, func(c *comm.Comm) error {
		if !in[c.Rank()] {
			return nil
		}
		y, err := s.Solver(c.Rank()).GatherField(0, f)
		if c.Rank() == 0 {
			out = y
		}
		return err
	})
	return out, err
}

// orderPerm computes the workload's ordering of g (perm[old] = new).
func orderPerm(name string, g *stance.Graph) ([]int32, error) {
	f, err := order.ByName(name)
	if err != nil {
		return nil, err
	}
	return f(g)
}

// runSteady: real clock, inproc, the paper's synchronous executor on a
// ~10^5-vertex RCB-ordered triangulated grid, one field, no balancer.
func runSteady(ctx context.Context, rc runConfig) (*outcome, error) {
	g, err := stance.GridMesh(316, 316, 0.3, rc.seed)
	if err != nil {
		return nil, err
	}
	in := &sessionInput{
		g: g, procs: rc.procs, orderName: "rcb", fields: 1,
		iters: 400, seg: 5, transport: "inproc",
		opts: func() ([]stance.Option, *stance.SimClock) {
			return []stance.Option{stance.WithOrdering("rcb")}, nil
		},
	}
	return runSession(ctx, rc, in)
}

// runWire: real clock, TCP over loopback, a random geometric graph with
// mean degree ~25 in identity order (a large cut), four fields
// pipelined at depth 2 and buddy checkpoints at every check boundary.
func runWire(ctx context.Context, rc runConfig) (*outcome, error) {
	const n = 20000
	radius := math.Sqrt(25 / (math.Pi * n))
	g, err := stance.RandomGeometric(n, radius, rc.seed)
	if err != nil {
		return nil, err
	}
	in := &sessionInput{
		g: g, procs: rc.procs, orderName: "identity", fields: 4,
		iters: 200, seg: 5, transport: "tcp",
		opts: func() ([]stance.Option, *stance.SimClock) {
			return []stance.Option{
				stance.WithTransport("tcp"),
				stance.WithFields(4),
				stance.WithPipeline(2),
				stance.WithCheckEvery(5),
				// The detection deadline only matters when a rank is
				// silent; a generous one keeps a loaded host from
				// declaring a slow rank dead.
				stance.WithCheckpoint(stance.CheckpointConfig{DetectTimeout: 10 * time.Second}),
			}, nil
		},
	}
	return runSession(ctx, rc, in)
}

// runAdaptive: virtual time, inproc, 8 ranks in two groups behind a
// slower inter-group link, virtual compute and a delay model. A script
// slows one rank and restores it, and takes another away and gives it
// back; decentralized checks, buddy checkpoints and two pipelined
// fields run through it.
func runAdaptive(ctx context.Context, rc runConfig) (*outcome, error) {
	const procs = 8
	g, err := stance.GridMesh(140, 140, 0.3, rc.seed)
	if err != nil {
		return nil, err
	}
	// The script is fixed so every seed does the same adaptation: rank 5
	// (second group) slows down and recovers, rank 2 (first group)
	// leaves and returns. The seed varies the mesh.
	const (
		slow, gone          = 5, 2
		slowFrom, slowUntil = 40, 120
		goneFrom, goneUntil = 180, 230
		capability          = 0.4
	)
	env := stance.UniformEnv(procs)
	env.Traces = []stance.Trace{{Rank: slow, Steps: []stance.TraceStep{
		{FromIter: slowFrom, Capability: capability},
		{FromIter: slowUntil, Capability: 1},
	}}}
	in := &sessionInput{
		g: g, procs: procs, orderName: "rcb", fields: 2,
		iters: 300, seg: 10, transport: "inproc", adaptive: true,
		opts: func() ([]stance.Option, *stance.SimClock) {
			clk := stance.NewSimClock()
			return []stance.Option{
				stance.WithClock(clk),
				stance.WithOrdering("rcb"),
				stance.WithGroups(2),
				stance.WithNetworkModel(&stance.NetworkModel{Latency: 20 * time.Microsecond, Bandwidth: 1e9, Delay: 100 * time.Microsecond}),
				stance.WithInterModel(&stance.NetworkModel{Latency: 200 * time.Microsecond, Bandwidth: 1e8, Delay: 1 * time.Millisecond}),
				stance.WithVirtualCompute(2 * time.Microsecond),
				stance.WithEnv(env),
				stance.WithAvailability(stance.Outage{Rank: gone, FromIter: goneFrom, UntilIter: goneUntil}),
				stance.WithBalancer(stance.BalancerConfig{
					Decentralized: true,
					CostModel:     stance.CostModel{PerMessage: 1e-4, PerByte: 1e-8},
				}),
				stance.WithCheckpoint(stance.CheckpointConfig{DetectTimeout: 50 * time.Millisecond}),
				stance.WithFields(2),
				stance.WithPipeline(2),
			}, clk
		},
	}
	return runSession(ctx, rc, in)
}
