package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"stance/internal/graph"
	"stance/internal/jobsvc"
)

// jobKind is one distinct job of the seeded stream with its oracle
// result.
type jobKind struct {
	spec jobsvc.Spec
	g    *graph.Graph
	// want is the oracle's result in transformed order.
	want []float64
	orc  *oracle
}

func newJobKind(spec jobsvc.Spec) (*jobKind, error) {
	g, err := spec.Graph.Build()
	if err != nil {
		return nil, err
	}
	perm, err := orderPerm(spec.Order, g)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(g.Xadj, g.Adj, perm)
	if err != nil {
		return nil, err
	}
	return &jobKind{spec: spec, g: g, orc: orc, want: orc.run(0, spec.Iters)}, nil
}

// verify checks a finished job: Done, and its returned result equal to
// the oracle bit for bit and conserving Σ deg·y; its report's items
// add up to N × iterations.
func (k *jobKind) verify(st *jobsvc.Status) error {
	if st.State != jobsvc.Done {
		return fmt.Errorf("%s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Report == nil {
		return fmt.Errorf("%s: no report", st.ID)
	}
	var items int64
	for _, r := range st.Report.Ranks {
		items += r.Items
	}
	if err := checkItems(st.ID, items, k.g.N, 1, k.spec.Iters); err != nil {
		return err
	}
	if len(st.Result) != k.g.N {
		return fmt.Errorf("%s: returned %d values for %d vertices", st.ID, len(st.Result), k.g.N)
	}
	// The oracle checks in transformed order.
	got := make([]float64, k.g.N)
	for v, nw := range k.orc.perm {
		got[nw] = st.Result[v]
	}
	return k.orc.check(st.ID, got, k.want, 0)
}

// interactiveKinds is the stream's mix of small one-rank jobs: four
// mesh kinds in three fixed sizes each, with seeded geometry, each
// under every ordering, in a seeded submission order. Every ordering
// runs on every mesh so the costliest kinds, which set the tail, do
// not depend on the seed.
func interactiveKinds(rng *rand.Rand) ([]*jobKind, error) {
	orders := []string{"rcb", "hilbert", "rcm", "identity"}
	var kinds []*jobKind
	for i := 0; i < 12; i++ {
		j := i / 4
		var gs jobsvc.GraphSpec
		switch i % 4 {
		case 0:
			gs = jobsvc.GraphSpec{Kind: "honeycomb", Rows: []int{14, 18, 22}[j], Cols: []int{14, 18, 16}[j]}
		case 1:
			gs = jobsvc.GraphSpec{Kind: "grid", Rows: []int{20, 28, 34}[j], Cols: []int{20, 28, 24}[j], Perturb: 0.3, Seed: rng.Int63()}
		case 2:
			gs = jobsvc.GraphSpec{Kind: "annulus", Rows: []int{6, 9, 12}[j], Cols: []int{60, 80, 50}[j]}
		default:
			gs = jobsvc.GraphSpec{Kind: "random", N: []int{400, 700, 1000}[j], Radius: 0.06, Seed: rng.Int63()}
		}
		for o, ord := range orders {
			k, err := newJobKind(jobsvc.Spec{
				Name:  fmt.Sprintf("interactive-%d", 4*i+o),
				Graph: gs, Iters: 20 + 10*j,
				Ranks: 1, Order: ord, ReturnResult: true,
			})
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds, nil
}

// jobRecord is what the benchmark keeps of one finished job: the
// figures it reports, not the job's status, so finished jobs' results
// and reports are not kept alive by the benchmark.
type jobRecord struct {
	// setup marks a job of the round's set-up; interactive one of the
	// interactive client's.
	setup, interactive bool
	err                error
	submit             time.Duration
	// cpu is the process CPU time from submit until the client saw the
	// job finish, the batch work the pool did meanwhile included.
	cpu     time.Duration
	updates float64
	// Service-clock timings: submit to start, start to finish, and the
	// session's own Run wall time.
	wait, run, wall time.Duration
	// Report figures: iterations, the slowest rank's compute, comm and
	// compute+comm, executor messages, and shrink/grow epochs.
	iters               int
	compute, comm, busy time.Duration
	execMsgs, execBytes int64
	shrinks, regrows    int
}

// runJobs: an in-process job service on a TCP pool of procs ranks with
// two closed-loop clients. The batch client keeps one pool-wide,
// balanced, long job running; the interactive client submits the
// seeded stream of small one-rank jobs, each of which can only start
// after the scheduler shrinks the batch job through the epoch protocol.
func runJobs(ctx context.Context, rc runConfig) (*outcome, error) {
	tr := rc.tr
	rng := rand.New(rand.NewSource(rc.seed))
	kinds, err := interactiveKinds(rng)
	if err != nil {
		return nil, err
	}
	batch, err := newJobKind(jobsvc.Spec{
		Name:  "batch",
		Graph: jobsvc.GraphSpec{Kind: "grid", Rows: 50, Cols: 50, Perturb: 0.3, Seed: rng.Int63()},
		Iters: 3000, Ranks: rc.procs, MinRanks: 1, Order: "rcb", Balance: true, ReturnResult: true,
	})
	if err != nil {
		return nil, err
	}
	cfg := jobsvc.Config{PoolRanks: rc.procs, Transport: "tcp"}
	// One unmeasured round warms the code paths up.
	svc, _, err := jobsRound(nil, cfg, kinds, batch, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	var rounds []*jobsRun
	start := time.Now()
	for time.Since(start) < rc.seconds {
		svc.Close()
		var jr *jobsRun
		if svc, jr, err = jobsRound(tr, cfg, kinds, batch, len(rounds)); err != nil {
			return nil, err
		}
		rounds = append(rounds, jr)
	}
	defer svc.Close()
	heap := heapMB()

	out := &outcome{layers: map[string]float64{}}
	var lat, wait, run, jsetup, submit, setup, upd, ops, util []float64
	shrinks, regrows := 0, 0
	var setupCPU, roundCPU, opCPU []float64
	for _, jr := range rounds {
		setup = append(setup, jr.setup...)
		setupCPU = append(setupCPU, jr.setupCPU...)
		util = append(util, jr.util...)
		var updates float64
		for _, r := range jr.records {
			out.attempted++
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "job failed: %v\n", r.err)
				out.failed++
				if errors.Is(r.err, errWrong) {
					out.wrong++
				}
				continue
			}
			if r.setup {
				continue
			}
			updates += r.updates
			submit = append(submit, float64(r.submit.Nanoseconds())/1e3)
			shrinks += r.shrinks
			regrows += r.regrows
			if r.interactive {
				lat = append(lat, (r.wait + r.run).Seconds())
				opCPU = append(opCPU, r.cpu.Seconds())
				wait = append(wait, 1e3*r.wait.Seconds())
				run = append(run, 1e3*r.run.Seconds())
				jsetup = append(jsetup, 1e3*(r.run-r.wall).Seconds())
			}
		}
		upd = append(upd, updates/jr.wall)
		roundCPU = append(roundCPU, jr.interactiveCPU)
		ops = append(ops, float64(interactivePerRound)/jr.interactiveWall)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no interactive job completed")
	}
	out.e2e = map[string]float64{
		"setup_s":      median(setupCPU),
		"round_s":      median(roundCPU),
		"op_p50_ms":    1e3 * quantile(opCPU, 0.5),
		"op_p95_ms":    1e3 * quantile(opCPU, 0.95),
		"live_heap_mb": heap,
	}
	out.layers["bench.wall_setup_s"] = median(setup)
	out.layers["bench.wall_updates_per_s"] = median(upd)
	out.layers["bench.wall_op_p50_ms"] = 1e3 * quantile(lat, 0.5)
	out.layers["bench.wall_op_p95_ms"] = 1e3 * quantile(lat, 0.95)
	out.layers["bench.wall_ops_per_s"] = median(ops)
	if tr != nil {
		m := out.layers
		m["jobsvc.queue_wait_ms_p50"] = quantile(wait, 0.5)
		m["jobsvc.queue_wait_ms_p95"] = quantile(wait, 0.95)
		m["jobsvc.run_ms_p50"] = quantile(run, 0.5)
		m["jobsvc.job_setup_ms_p50"] = quantile(jsetup, 0.5)
		m["jobsvc.submit_us"] = quantile(submit, 0.5)
		m["jobsvc.shrinks"] = float64(shrinks) / float64(len(rounds))
		m["jobsvc.regrows"] = float64(regrows) / float64(len(rounds))
		m["jobsvc.utilization"] = meanOf(util)
		last := rounds[len(rounds)-1]
		jobsLayers(svc, last.records[last.open:], m)
		if err := jobsProbes(ctx, tr, kinds, rc.procs, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runJob submits one job, waits for it to finish and verifies it.
// launched, when set, is polled until it reports true and then
// onLaunch runs once.
func runJob(tr *tracer, svc *jobsvc.Service, k *jobKind, seq, tid int, launched func(*jobsvc.Status) bool, onLaunch func()) jobRecord {
	id := tr.begin("jobsvc", k.spec.Name, seq, -1, tid)
	defer tr.end(id)
	t, c := time.Now(), cpuTime()
	st, err := svc.Submit(k.spec)
	r := jobRecord{submit: time.Since(t)}
	if err != nil {
		if onLaunch != nil {
			onLaunch()
		}
		r.err = err
		return r
	}
	jid := st.ID
	for !st.State.Finished() {
		if launched != nil && launched(st) {
			onLaunch()
			launched = nil
		}
		time.Sleep(200 * time.Microsecond)
		if st, err = svc.Get(jid); err != nil {
			break
		}
	}
	r.cpu = cpuTime() - c
	if launched != nil {
		onLaunch()
	}
	if err != nil {
		r.err = err
		return r
	}
	if err := k.verify(st); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		r.err = errWrong
		return r
	}
	r.updates = float64(k.g.N * k.spec.Iters)
	r.wait, r.run = st.Started.Sub(st.Submitted), st.Finished.Sub(st.Started)
	rep := st.Report
	r.wall, r.iters, r.execMsgs, r.execBytes = rep.Wall, rep.Iters, rep.Exec.Msgs, rep.Exec.Bytes
	for _, u := range rep.Ranks {
		r.compute = max(r.compute, u.Compute)
		r.comm = max(r.comm, u.Comm)
		r.busy = max(r.busy, u.Compute+u.Comm)
	}
	for _, ev := range rep.Members {
		if len(ev.Retired) > 0 {
			r.shrinks++
		}
		if len(ev.Admitted) > 0 {
			r.regrows++
		}
	}
	return r
}

// jobsLayers reads the session-level counters of one round's job
// reports, set-up jobs included, and the round's pool counters, per
// solver iteration.
func jobsLayers(svc *jobsvc.Service, records []jobRecord, m map[string]float64) {
	var iters, compute, commT, overhead, exec, execB float64
	for _, r := range records {
		if r.err != nil {
			continue
		}
		iters += float64(r.iters)
		exec += float64(r.execMsgs)
		execB += float64(r.execBytes)
		compute += r.compute.Seconds()
		commT += r.comm.Seconds()
		overhead += (r.wall - r.busy).Seconds()
	}
	pm := svc.Metrics()
	m["solver.compute_ms_per_iter"] = 1e3 * compute / iters
	m["solver.comm_ms_per_iter"] = 1e3 * commT / iters
	m["session.overhead_ms_per_iter"] = 1e3 * overhead / iters
	m["core.exec_msgs_per_iter"] = exec / iters
	m["core.exec_bytes_per_iter"] = execB / iters
	m["comm.control_bytes_per_iter"] = (float64(pm.PoolBytes) - execB) / iters
	m["comm.msgs_per_iter"] = float64(pm.PoolMsgs) / iters
	m["comm.bytes_per_iter"] = float64(pm.PoolBytes) / iters
	if t := pm.Transport; t != nil {
		m["comm.tcp_flushes_per_iter"] = float64(t.NFlushes) / iters
		m["comm.tcp_wire_bytes_per_iter"] = float64(t.NTxByte) / iters
		m["comm.tcp_sections_per_flush"] = ratio(float64(t.NTx), float64(t.NFlushes))
		m["comm.tcp_backpressure"] = float64(t.NTxBackpressure)
		m["comm.tcp_missed_hb"] = float64(t.NDroppedHB)
	}
}

// jobsProbes times the interactive stream's orderings and the layers
// below a job on a TCP probe world, using the first kind's mesh.
func jobsProbes(ctx context.Context, tr *tracer, kinds []*jobKind, procs int, m map[string]float64) error {
	var ord []float64
	for _, k := range kinds {
		if err := orderProbe(tr, k.spec.Order, k.g, m); err != nil {
			return err
		}
		ord = append(ord, m["order.ordering_s"])
	}
	m["order.ordering_s"] = median(ord)
	k := kinds[0]
	perm, err := orderPerm(k.spec.Order, k.g)
	if err != nil {
		return err
	}
	tg, err := k.g.Permute(perm)
	if err != nil {
		return err
	}
	return worldProbes(ctx, tr, "tcp", procs, tg, 1, nil, m)
}

// interactivePerRound is the number of interactive jobs one round runs:
// every kind three times.
const interactivePerRound = 3 * 48

// setupsPerRound is the number of set-ups one round times; the last
// one's service runs the round.
const setupsPerRound = 3

// jobsRun is what one round measured.
type jobsRun struct {
	// setup and setupCPU are each set-up's wall and process CPU seconds.
	setup, setupCPU []float64
	// interactiveCPU is the round's CPU seconds until the last
	// interactive job finished.
	interactiveCPU float64
	records        []jobRecord
	// open is the index of the first record of the service left open.
	open int
	// wall runs until every job of the round finished; interactiveWall
	// until the last interactive job did.
	wall, interactiveWall float64
	util                  []float64
}

// jobsRound times setupsPerRound set-ups of a fresh service (opening
// the service and its TCP pool and bringing every job kind through it
// once, so first-use costs land there), keeps the last one open, then
// runs the two closed-loop clients until the interactive one has
// finished interactivePerRound jobs and the batch job in flight is
// done. The service is returned open.
func jobsRound(tr *tracer, cfg jobsvc.Config, kinds []*jobKind, batch *jobKind, round int) (*jobsvc.Service, *jobsRun, error) {
	jr := &jobsRun{}
	var svc *jobsvc.Service
	for i := 0; i < setupsPerRound; i++ {
		if svc != nil {
			svc.Close()
			svc = nil
		}
		jr.open = len(jr.records)
		// The previous service's garbage is collected before set-up, not
		// during it.
		runtime.GC()
		c0 := cpuTime()
		d, err := tr.do("jobsvc", "setup", round*setupsPerRound+i, -1, func() error {
			var err error
			if svc, err = jobsvc.New(cfg); err != nil {
				return err
			}
			for j, k := range kinds {
				r := runJob(tr, svc, k, j, 0, nil, nil)
				if r.err != nil {
					return fmt.Errorf("set-up job %s: %w", k.spec.Name, r.err)
				}
				r.setup = true
				jr.records = append(jr.records, r)
			}
			return nil
		})
		if err != nil {
			if svc != nil {
				svc.Close()
			}
			return nil, nil, err
		}
		jr.setup = append(jr.setup, d.Seconds())
		jr.setupCPU = append(jr.setupCPU, (cpuTime() - c0).Seconds())
	}
	c1 := cpuTime()

	// gate serializes a batch job's launch with the interactive jobs: a
	// batch job is only submitted while no interactive job holds a rank,
	// so it is granted the whole pool and stays shrinkable.
	var gate, mu sync.Mutex
	record := func(r jobRecord) {
		mu.Lock()
		jr.records = append(jr.records, r)
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			gate.Lock()
			select {
			case <-stop:
				// The interactive client finished while this one waited.
				gate.Unlock()
				return
			default:
			}
			r := runJob(tr, svc, batch, seq, 1, func(st *jobsvc.Status) bool {
				return st.State != jobsvc.Queued
			}, gate.Unlock)
			record(r)
		}
	}()
	if tr != nil {
		// Sample pool occupancy in the traced run only.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					jr.util = append(jr.util, svc.Metrics().Utilization)
				}
			}
		}()
	}
	for seq := 0; seq < interactivePerRound; seq++ {
		gate.Lock()
		r := runJob(tr, svc, kinds[seq%len(kinds)], seq, 2, nil, nil)
		gate.Unlock()
		r.interactive = true
		record(r)
	}
	jr.interactiveWall = time.Since(start).Seconds()
	jr.interactiveCPU = (cpuTime() - c1).Seconds()
	close(stop)
	wg.Wait()
	jr.wall = time.Since(start).Seconds()
	return svc, jr, nil
}
