package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parmonc/internal/rng"
)

// traced is the per-layer pass. An untraced reference part and a
// traced part run on separate stacks; the ratio of their headline
// figures is the tracing overhead.
func (p *pass) traced(ctx context.Context, budget time.Duration) (result, error) {
	tr := newTracer()
	if err := tr.registerTraced(p.spec.workload); err != nil {
		return result{}, err
	}
	start := time.Now()
	refBudget := budget / 2
	if !p.spec.burst {
		refBudget = 0 // one run per path
	}
	st, _, err := p.up(ctx, "ref", nil)
	if err != nil {
		return result{}, err
	}
	ref := newPart(st, nil)
	next, err := p.measure(ctx, ref, p.base, 0, refBudget)
	st.close()
	if err != nil {
		return result{}, err
	}

	st, _, err = p.up(ctx, "traced", tr)
	if err != nil {
		return result{}, err
	}
	tp := newPart(st, tr)
	tj := p.base
	tj.name = tracedName(p.spec.workload)
	_, err = p.measure(ctx, tp, tj, next, budget-time.Since(start))
	st.close()
	if err != nil {
		return result{}, err
	}
	p.report(ref)
	p.report(tp)
	res := p.tally([]*part{ref, tp}, append(p.check(ref), p.check(tp)...))

	j := p.base
	rp := replay{dir: filepath.Join(p.root, "replay"), params: rng.DefaultParams(), seq: p.seqs[0],
		nrow: j.id.Nrow, ncol: j.id.Ncol, passEvery: j.passEvery}
	if rp.kernel, err = j.factory(0); err != nil {
		return result{}, err
	}
	t0 := tr.now()
	layers, err := rp.run()
	if err != nil {
		return result{}, err
	}
	tr.add(span{Run: "replay", Layer: "replay", Start: t0, Dur: tr.now() - t0})
	serial, err := serialRealPerS(rp.params, rp.seq, rp.nrow, rp.ncol, rp.kernel, 300*time.Millisecond)
	if err != nil {
		return result{}, err
	}

	m := res.Metrics
	units := map[string]string{"_ns": "ns", "_us": "us", "_ms": "ms", "_allocs": "count"}
	for k, v := range layers {
		for suffix, u := range units {
			if strings.HasSuffix(k, suffix) {
				m[k] = metric{v, u}
			}
		}
	}
	m["core.serial_real_per_s"] = metric{serial, "real/s"}
	p.layerMetrics(tp, m)
	m["trace.overhead_frac"] = metric{1 - p.headline(tp)/p.headline(ref), "ratio"}
	p.printTimeTable(tp, m)

	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", p.spec.name, os.Getpid()))
	if err := tr.write(file); err != nil {
		return result{}, err
	}
	fmt.Printf("spans written to %s\n", file)
	return res, nil
}

// kernelStats merges a path's probes.
func (pt *part) kernel(path string) kernelStats {
	var s kernelStats
	for _, kp := range pt.probes[path] {
		k := kp.stats()
		s.calls += k.calls
		s.draws += k.draws
		s.sampled += k.sampled
		s.sampledNs += k.sampledNs
	}
	return s
}

// pushesPerReal is the windows pushed per realization on a path.
func (pt *part) pushesPerReal(path string) float64 {
	switch path {
	case pathLocal, pathTCP:
		var pushes, reals int64
		for _, r := range pt.st.reports[path] {
			pushes += r.Pushes
			reals += r.Realizations
		}
		return ratio(float64(pushes), float64(reals))
	}
	var pushes int64
	for _, o := range pt.outcomes {
		if o.path == path {
			pushes += o.pushes
		}
	}
	return ratio(float64(pushes), float64(pt.stats(path).n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of the traced part.
func (p *pass) layerMetrics(tp *part, m map[string]metric) {
	var all kernelStats
	for _, path := range pathNames {
		k := tp.kernel(path)
		all.calls += k.calls
		all.draws += k.draws
		all.sampled += k.sampled
		all.sampledNs += k.sampledNs
		s := tp.stats(path)
		m["workload.kernel_share."+path] = metric{ratio(k.kernelNs()*float64(s.n), workers*float64(s.wall.Nanoseconds())), "ratio"}
	}
	m["workload.kernel_ns"] = metric{all.kernelNs(), "ns"}
	m["workload.draws_per_real"] = metric{ratio(float64(all.draws), float64(all.calls)), "count"}

	in := tp.stats(pathInproc)
	m["core.overhead_ns_per_real"] = metric{ratio(workers*float64(in.wall.Nanoseconds()), float64(in.n)) - tp.kernel(pathInproc).kernelNs(), "ns"}
	var idle, slots float64
	i := 0
	for _, o := range tp.outcomes {
		if o.path != pathInproc {
			continue
		}
		done := o.done.Sub(tp.tr.base).Nanoseconds()
		for _, last := range tp.probes[pathInproc][i].stats().lastEnd {
			if last > 0 && done > last {
				idle += float64(done - last)
			}
		}
		slots += workers * float64(o.elapsed().Nanoseconds())
		i++
	}
	m["core.straggler_share"] = metric{ratio(idle, slots), "ratio"}
	m["collect.pushes_per_real"] = metric{tp.pushesPerReal(pathInproc), "count"}

	var submit, queue, exec []float64
	var reissued, granted, nacks float64
	for _, o := range tp.outcomes {
		if o.path != pathTCP {
			continue
		}
		submit = append(submit, float64(o.submitRTT.Microseconds()))
		queue = append(queue, float64(o.queueWait.Nanoseconds())/1e6)
		exec = append(exec, float64(o.exec.Nanoseconds())/1e6)
		reissued += float64(o.leases.Reissued)
		granted += float64(o.leases.Granted)
		nacks += float64(o.leases.Nacks)
	}
	m["runmgr.submit_us"] = metric{median(submit), "us"}
	m["runmgr.queue_wait_ms"] = metric{median(queue), "ms"}
	m["runmgr.exec_ms"] = metric{median(exec), "ms"}
	m["runmgr.reissued_frac"] = metric{ratio(reissued, granted), "ratio"}
	var pushes, batches, retries float64
	for _, r := range tp.st.reports[pathTCP] {
		pushes += float64(r.Pushes)
		batches += float64(r.Batches)
		retries += float64(r.Retries + r.Reconnects)
	}
	m["runmgr.windows_per_batch"] = metric{ratio(pushes, batches), "count"}
	m["runmgr.retries"] = metric{retries + nacks, "count"}
	tcpN := float64(tp.stats(pathTCP).n)
	rpc := tp.st.rpc
	m["runmgr.rpcs_per_real"] = metric{ratio(float64(rpc.rpcs.Load()), tcpN), "count"}
	m["runmgr.rpc_bytes_per_real"] = metric{ratio(float64(rpc.in.Load()+rpc.out.Load()), tcpN), "B"}
	m["runmgr.rpc_service_us"] = metric{median(rpc.serviceTimes()) / 1e3, "us"}

	var cGranted, cReissued, beats, runs float64
	var tails []float64
	for _, o := range tp.outcomes {
		if o.path == pathCoord {
			cGranted += float64(o.leasesGranted)
			cReissued += float64(o.leasesReissued)
			beats += float64(o.heartbeats)
			runs++
			tails = append(tails, o.tail.Seconds())
		}
	}
	m["cluster.completion_tail_s"] = metric{median(tails), "s"}
	m["cluster.real_per_s"] = metric{tp.stats(pathCoord).realPerS(p.spec.burst), "real/s"}
	m["cluster.pushes_per_real"] = metric{tp.pushesPerReal(pathCoord), "count"}
	m["cluster.reissued_frac"] = metric{ratio(cReissued, cGranted), "ratio"}
	m["cluster.heartbeats"] = metric{ratio(beats, runs), "count"}
}

// printTimeTable prints where a realization's time goes on each path:
// self time per layer per realization, out of the workers × wall / N a
// realization occupies, with the unattributed remainder explicit.
func (p *pass) printTimeTable(tp *part, m map[string]metric) {
	v := func(k string) float64 { return m[k].Value }
	draws := v("workload.draws_per_real")
	fmt.Printf("\nwhere a realization's time goes (%s, traced, ns per realization; total = %d workers x wall / N)\n", p.spec.name, workers)
	fmt.Printf("%-22s", "layer")
	for _, path := range pathNames {
		fmt.Printf(" %12s", path)
	}
	fmt.Println()
	rows := []string{"workload.kernel (self)", "rng.draw", "rng.position", "stat.add", "collect.push", "runmgr.rpc", "unattributed", "total"}
	cells := map[string][]float64{}
	for _, path := range pathNames {
		s := tp.stats(path)
		total := ratio(workers*float64(s.wall.Nanoseconds()), float64(s.n))
		kernel := tp.kernel(path).kernelNs()
		draw := draws * v("rng.draw_ns")
		vals := []float64{
			kernel - draw,
			draw,
			v("rng.position_ns"),
			v("stat.add_ns"),
			tp.pushesPerReal(path) * v("collect.push_ns"),
			0,
		}
		if path == pathTCP {
			vals[5] = v("runmgr.rpcs_per_real") * v("runmgr.rpc_service_us") * 1e3
		}
		sum := 0.0
		for _, x := range vals {
			sum += x
		}
		vals = append(vals, total-sum, total)
		for i, r := range rows {
			cells[r] = append(cells[r], vals[i])
		}
	}
	for _, r := range rows {
		fmt.Printf("%-22s", r)
		for _, x := range cells[r] {
			fmt.Printf(" %12.1f", x)
		}
		fmt.Println()
	}
	fmt.Println()
}
