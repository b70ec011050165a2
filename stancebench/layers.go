package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"stance"
	"stance/internal/ckpt"
	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/graph"
	"stance/internal/partition"
	"stance/internal/redist"
	"stance/internal/sched"
	"stance/internal/solver"
)

// layerUnits are the per-layer metrics a traced run reports. A layer
// that does no such work on a workload reports 0.
var layerUnits = map[string]string{
	"order.ordering_s":             "s",
	"partition.cut_ms":             "ms",
	"core.build_s":                 "s",
	"sched.compile_ms":             "ms",
	"sched.ghosts":                 "count",
	"core.exchange_us":             "us",
	"core.exec_msgs_per_iter":      "count",
	"core.exec_bytes_per_iter":     "B",
	"core.exec_idle_ms_per_iter":   "ms",
	"core.pipelined_ops":           "count",
	"core.overlapped_ops":          "count",
	"comm.msgs_per_iter":           "count",
	"comm.bytes_per_iter":          "B",
	"comm.control_bytes_per_iter":  "B",
	"comm.pingpong_us":             "us",
	"comm.codec_gb_per_s":          "GB/s",
	"comm.tcp_flushes_per_iter":    "count",
	"comm.tcp_wire_bytes_per_iter": "B",
	"comm.tcp_sections_per_flush":  "count",
	"comm.tcp_backpressure":        "count",
	"comm.tcp_missed_hb":           "count",
	"solver.compute_ms_per_iter":   "ms",
	"solver.comm_ms_per_iter":      "ms",
	"solver.sweep_gb_per_s":        "GB/s",
	"solver.imbalance":             "ratio",
	"loadbal.checks":               "count",
	"loadbal.remaps":               "count",
	"loadbal.check_us":             "us",
	"loadbal.remap_ms":             "ms",
	"redist.mcr_us":                "us",
	"elastic.epochs":               "count",
	"elastic.moved_bytes":          "B",
	"elastic.epoch_ms":             "ms",
	"ckpt.take_ms":                 "ms",
	"ckpt.snapshot_bytes":          "B",
	"session.overhead_ms_per_iter": "ms",
	"session.allocs_per_iter":      "count",
	"session.alloc_bytes_per_iter": "B",
	"jobsvc.queue_wait_ms_p50":     "ms",
	"jobsvc.queue_wait_ms_p95":     "ms",
	"jobsvc.run_ms_p50":            "ms",
	"jobsvc.job_setup_ms_p50":      "ms",
	"jobsvc.submit_us":             "us",
	"jobsvc.shrinks":               "count",
	"jobsvc.regrows":               "count",
	"jobsvc.utilization":           "ratio",
	"bench.wall_setup_s":           "s",
	"bench.wall_updates_per_s":     "1/s",
	"bench.wall_op_p50_ms":         "ms",
	"bench.wall_op_p95_ms":         "ms",
	"bench.wall_ops_per_s":         "1/s",
	"bench.trace_overhead_pct":     "%",
	"bench.spans":                  "count",
}

// sessionLayers turns a run's accumulated reports into per-layer
// metrics. Counts that depend on how many rounds fit in the run are
// reported per round (every round runs the same script).
func sessionLayers(in *sessionInput, sr *sessionRun, m map[string]float64) {
	it := float64(sr.iters)
	rounds := float64(sr.rounds)
	var maxC, maxM time.Duration
	var comp []float64
	for r := range sr.compute {
		maxC = max(maxC, sr.compute[r])
		maxM = max(maxM, sr.commT[r])
		if sr.compute[r] > 0 {
			comp = append(comp, sr.compute[r].Seconds())
		}
	}
	m["solver.compute_ms_per_iter"] = 1e3 * maxC.Seconds() / it
	m["solver.comm_ms_per_iter"] = 1e3 * maxM.Seconds() / it
	m["solver.imbalance"] = ratio(maxOf(comp), meanOf(comp))
	m["core.exec_msgs_per_iter"] = float64(sr.exec.Msgs) / it
	m["core.exec_bytes_per_iter"] = float64(sr.exec.Bytes) / it
	m["core.exec_idle_ms_per_iter"] = 1e3 * sr.exec.Idle.Seconds() / it
	m["core.pipelined_ops"] = float64(sr.exec.Pipelined) / rounds
	m["core.overlapped_ops"] = float64(sr.exec.Overlapped) / rounds
	m["comm.msgs_per_iter"] = float64(sr.msgs) / it
	m["comm.bytes_per_iter"] = float64(sr.bytes) / it
	m["comm.control_bytes_per_iter"] = float64(sr.bytes-sr.exec.Bytes) / it
	m["comm.tcp_flushes_per_iter"] = float64(sr.tcp.NFlushes) / it
	m["comm.tcp_wire_bytes_per_iter"] = float64(sr.tcp.NTxByte) / it
	m["comm.tcp_sections_per_flush"] = ratio(float64(sr.tcp.NTx), float64(sr.tcp.NFlushes))
	m["comm.tcp_backpressure"] = float64(sr.tcp.NTxBackpressure)
	m["comm.tcp_missed_hb"] = float64(sr.tcp.NDroppedHB)
	m["loadbal.checks"] = float64(sr.checks) / rounds
	m["loadbal.remaps"] = float64(sr.remaps) / rounds
	m["loadbal.check_us"] = zeroNaN(median(sr.checkUS))
	m["elastic.epochs"] = float64(sr.epochs) / rounds
	m["elastic.moved_bytes"] = float64(sr.moved) / rounds
	m["elastic.epoch_ms"] = zeroNaN(median(sr.epochMS))
	m["session.overhead_ms_per_iter"] = 1e3 * sr.overhead.Seconds() / it
	m["session.allocs_per_iter"] = float64(sr.mallocs) / it
	m["session.alloc_bytes_per_iter"] = float64(sr.allocB) / it
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// sessionProbes times single calls into the layers below the session:
// the ordering, the cut on the open session's runtime, and a probe
// world built like the workload's for the inspector, plan compile,
// exchange, ping-pong, sweep and checkpoint.
func sessionProbes(ctx context.Context, tr *tracer, in *sessionInput, perm []int32, s *stance.Session, sr *sessionRun, m map[string]float64) error {
	if err := orderProbe(tr, in.orderName, in.g, m); err != nil {
		return err
	}
	rt := s.Runtime(0)
	w := make([]float64, in.procs)
	for i := range w {
		w[i] = 1
	}
	var cuts []float64
	for i := 0; i < 20; i++ {
		d, err := tr.do("partition", "CutLayout", i, -1, func() error {
			_, err := rt.CutLayout(w)
			return err
		})
		if err != nil {
			return err
		}
		cuts = append(cuts, 1e3*d.Seconds())
	}
	m["partition.cut_ms"] = median(cuts)
	if err := mcrProbe(tr, sr.newWeights, int64(in.g.N), m); err != nil {
		return err
	}
	tg, err := in.g.Permute(perm)
	if err != nil {
		return err
	}
	return worldProbes(ctx, tr, in.transport, in.procs, tg, in.fields, sr.newWeights, m)
}

// orderProbe times one call of the workload's ordering.
func orderProbe(tr *tracer, name string, g *graph.Graph, m map[string]float64) error {
	d, err := tr.do("order", "ordering."+name, 0, -1, func() error {
		_, err := orderPerm(name, g)
		return err
	})
	m["order.ordering_s"] = d.Seconds()
	return err
}

// mcrProbe times the MCR arrangement search on the capability weights
// the balancer recorded (nothing to time when no remap happened).
func mcrProbe(tr *tracer, weights [][]float64, n int64, m map[string]float64) error {
	if len(weights) == 0 {
		return nil
	}
	var us []float64
	for i, nw := range weights {
		old, err := partition.NewUniform(n, len(nw))
		if err != nil {
			return err
		}
		d, err := tr.do("redist", "MCR", i, -1, func() error {
			_, err := redist.Iterated(old, nw, redist.OverlapCost, 0)
			return err
		})
		if err != nil {
			return err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	m["redist.mcr_us"] = median(us)
	return nil
}

// worldProbes opens a real-clock world of procs ranks on transport and
// times, on the pre-ordered graph tg: the collective core.New, one plan
// compile, synchronous exchanges, a ghost-sized ping-pong, the Figure 8
// sweep over rank 0's local CSR, the codec, a buddy checkpoint of
// fields vectors and, when the workload's balancer recorded capability
// weights, a remap to each of them in turn.
func worldProbes(ctx context.Context, tr *tracer, transport string, procs int, tg *graph.Graph, fields int, weights [][]float64, m map[string]float64) error {
	w, err := comm.Open(transport, procs, comm.TransportOptions{})
	if err != nil {
		return err
	}
	defer w.Close()
	build := make([]float64, procs)
	ghosts := make([]int, procs)
	var compile, exch, rtt, takes, remaps []float64
	var sweepGBs float64
	err = w.SPMD(ctx, func(c *comm.Comm) error {
		me := c.Rank()
		id := -1
		if me == 0 {
			id = tr.begin("core", "core.New", 0, -1, 0)
		}
		t0 := time.Now()
		rt, err := core.New(c, tg, core.Config{})
		build[me] = time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return err
		}
		ghosts[me] = rt.Schedule().NGhosts()
		v := rt.NewVector()
		for i := range v.Data {
			v.Data[i] = float64(i % 97)
		}
		if me == 0 {
			for i := 0; i < 20; i++ {
				d, _ := tr.do("sched", "Compile", i, -1, func() error {
					sched.Compile(rt.Schedule())
					return nil
				})
				compile = append(compile, 1e3*d.Seconds())
			}
		}
		if err := c.Barrier(0x7001); err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			id := -1
			if me == 0 {
				id = tr.begin("core", "Exchange", i, -1, 0)
			}
			t := time.Now()
			if err := rt.Exchange(v); err != nil {
				return err
			}
			if me == 0 {
				exch = append(exch, float64(time.Since(t).Nanoseconds())/1e3)
			}
			tr.end(id)
		}
		// Ping-pong between ranks 0 and 1 with one peer's share of rank
		// 0's ghost traffic.
		payload := make([]byte, 8*max(1, ghosts[0]/max(1, rt.Schedule().Peers())))
		if me <= 1 {
			for i := 0; i < 200; i++ {
				if me == 0 {
					id := tr.begin("comm", "pingpong", i, -1, 0)
					t := time.Now()
					if err := c.Send(1, 0x7002, payload); err != nil {
						return err
					}
					if _, err := c.Recv(1, 0x7003); err != nil {
						return err
					}
					rtt = append(rtt, float64(time.Since(t).Nanoseconds())/1e3)
					tr.end(id)
				} else {
					b, err := c.Recv(0, 0x7002)
					if err != nil {
						return err
					}
					if err := c.Send(0, 0x7003, b); err != nil {
						return err
					}
				}
			}
		}
		if me == 0 {
			sweepGBs = sweepProbe(tr, rt, v)
		}
		st := ckpt.NewStore(c, fields)
		data := make([][]float64, fields)
		for f := range data {
			data[f] = v.Data
		}
		active := make([]int, c.Size())
		for i := range active {
			active[i] = i
		}
		for i := 0; i < 20; i++ {
			id := -1
			if me == 0 {
				id = tr.begin("ckpt", "Take", i, -1, 0)
			}
			t := time.Now()
			if err := st.Take(i, rt.Layout(), active, data); err != nil {
				return err
			}
			if me == 0 {
				takes = append(takes, 1e3*time.Since(t).Seconds())
			}
			tr.end(id)
		}
		if me == 0 {
			m["ckpt.snapshot_bytes"] = float64(ckpt.EncodedLen(fields, rt.Layout().Size(0)))
		}
		// A session reports a remap's duration on its own clock, which
		// is virtual on adaptive (where it reads 0), so the remap is
		// timed here on the host clock: the recorded weight vectors on
		// the same world size, each remap moving the probe vector and
		// rebuilding the plan.
		for i, w := range weights {
			if len(w) != c.Size() {
				continue
			}
			id := -1
			if me == 0 {
				id = tr.begin("loadbal", "Remap", i, -1, 0)
			}
			t := time.Now()
			st, err := rt.Remap(w)
			if err != nil {
				return err
			}
			if me == 0 && st.Changed {
				remaps = append(remaps, 1e3*time.Since(t).Seconds())
			}
			tr.end(id)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe world: %w", err)
	}
	m["core.build_s"] = maxOf(build)
	m["sched.compile_ms"] = median(compile)
	mg := 0
	for _, g := range ghosts {
		mg = max(mg, g)
	}
	m["sched.ghosts"] = float64(mg)
	m["core.exchange_us"] = median(exch)
	m["comm.pingpong_us"] = median(rtt)
	m["solver.sweep_gb_per_s"] = sweepGBs
	m["ckpt.take_ms"] = median(takes)
	m["loadbal.remap_ms"] = zeroNaN(median(remaps))
	m["comm.codec_gb_per_s"] = codecProbe(tr)
	return nil
}

// sweepProbe times Figure8.Sweep over rank 0's local CSR and returns
// the computed bytes it touches per second (CSR indices, the values it
// reads through them and the sums it writes), in GB/s.
func sweepProbe(tr *tracer, rt *core.Runtime, v *core.Vector) float64 {
	xadj, adj := rt.LocalAdj()
	n := rt.LocalN()
	tv := make([]float64, n)
	bytes := float64(4*(n+1) + 12*len(adj) + 8*n)
	id := tr.begin("solver", "Sweep", 0, -1, 0)
	defer tr.end(id)
	var k solver.Figure8
	reps := 0
	t := time.Now()
	for time.Since(t) < 50*time.Millisecond {
		k.Sweep(v.Data, xadj, adj, tv, 0, n)
		reps++
	}
	return bytes * float64(reps) / time.Since(t).Seconds() / 1e9
}

// codecProbe times PutF64s and GetF64s over a 1 MiB buffer and returns
// the bytes encoded plus decoded per second, in GB/s.
func codecProbe(tr *tracer) float64 {
	vals := make([]float64, 1<<17)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := make([]byte, 8*len(vals))
	id := tr.begin("comm", "codec", 0, -1, 0)
	defer tr.end(id)
	reps := 0
	t := time.Now()
	for time.Since(t) < 50*time.Millisecond {
		comm.PutF64s(buf, vals)
		if err := comm.GetF64s(vals, buf); err != nil {
			return 0
		}
		reps++
	}
	return 2 * float64(len(buf)) * float64(reps) / time.Since(t).Seconds() / 1e9
}
