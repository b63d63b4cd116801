// Command perfbench is parmonc's submit-to-done benchmark. It drives
// the four execution paths (inproc, coord, local service, tcp service)
// through their public entry points on one workload, checks every
// report, and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it; README.md describes the workloads and metrics.
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
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "parmonc/internal/workload/builtin"
)

// setupRepeats is how many times a pass brings every path up; set-up
// time is their median.
const setupRepeats = 15

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: pi-overhead, diffusion-kernel or service-burst")
	seed := flag.Int64("seed", 1, "workload seed: picks every submission's seqnum and the burst's order")
	seconds := flag.Int("seconds", 30, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	s, err := lookupSpec(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(buildDir, "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	root, err = filepath.Abs(root)
	if err != nil {
		return err
	}
	p, err := newPass(s, *seed, root)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	prov, err := provenance(root)
	if err != nil {
		return err
	}
	prov["workload"], prov["seed"], prov["seconds"], prov["trace"] = s.name, *seed, *seconds, *trace
	prov["held_back_seed"] = heldBackSeed
	b, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", b)

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = p.traced(ctx, budget)
	} else {
		res, err = p.untraced(ctx, budget)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// heldBackSeed is not used while tuning the benchmark or a change; a
// claimed gain must also hold on it.
const heldBackSeed = 20261017

// setup brings every path up setupRepeats times and keeps the last.
func (p *pass) setup(ctx context.Context, tag string, tr *tracer) (*stacks, float64, error) {
	times := make([]float64, 0, setupRepeats)
	for i := 0; ; i++ {
		st, d, err := p.up(ctx, fmt.Sprintf("%s%d", tag, i), tr)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == setupRepeats-1 {
			return st, median(times), nil
		}
		st.close()
	}
}

// measure runs the workload's load on a part for about budget and
// returns the seqs index the next part starts at: rounds continue past
// the seqnums they used, the burst starts over on fresh services.
func (p *pass) measure(ctx context.Context, pt *part, j job, first int, budget time.Duration) (int, error) {
	if p.spec.burst {
		return first, p.burst(ctx, pt, j, budget)
	}
	return p.rounds(ctx, pt, j, first, budget)
}

// untraced is the end-to-end pass.
func (p *pass) untraced(ctx context.Context, budget time.Duration) (result, error) {
	st, setupS, err := p.setup(ctx, "setup", nil)
	if err != nil {
		return result{}, err
	}
	pt := newPart(st, nil)
	_, err = p.measure(ctx, pt, p.base, 0, budget)
	st.close()
	if err != nil {
		return result{}, err
	}
	p.report(pt)
	res := p.tally([]*part{pt}, p.check(pt))
	m := res.Metrics
	m["setup_s"] = metric{setupS, "s"}
	for _, path := range []string{pathInproc, pathLocal, pathTCP} {
		m[path+"_real_per_s"] = metric{pt.stats(path).realPerS(p.spec.burst), "real/s"}
	}
	// The coord rate moves by ±50% between passes on the reference host
	// (README.md, "Host noise"), beyond the largest bound (0.25) that
	// BENCHMARK.json allows, so it is printed but not a gated metric.
	fmt.Printf("metric %-32s %14.6g real/s (not gated)\n", "coord_real_per_s", pt.stats(pathCoord).realPerS(p.spec.burst))
	tcp := pt.stats(pathTCP)
	m["runs_per_s"] = metric{tcp.runsPerS(), "runs/s"}
	m["run_latency_p50_s"] = metric{quantile(tcp.elapsed, 0.5), "s"}
	m["run_latency_p90_s"] = metric{quantile(tcp.elapsed, 0.9), "s"}
	m["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, nil
}

// report prints every run of a one-run-at-a-time part, or each path's
// totals for the burst.
func (p *pass) report(pt *part) {
	for _, path := range pathNames {
		s := pt.stats(path)
		if p.spec.burst {
			fmt.Printf("phase %-6s runs %4d  n %10d  wall %7.3fs\n", path, s.runs, s.n, s.wall.Seconds())
			continue
		}
		for i, e := range s.elapsed {
			fmt.Printf("run %-6s n %9d  %7.3fs  %12.0f real/s\n", path, s.n/int64(s.runs), e, s.rates[i])
		}
	}
}

// tally counts attempts and failures and prints every failed check.
func (p *pass) tally(parts []*part, fails []string) result {
	res := result{Metrics: map[string]metric{}}
	for _, pt := range parts {
		for _, o := range pt.outcomes {
			res.Attempted++
			if !o.ok() {
				res.Failed++
			}
		}
	}
	for _, f := range fails {
		fmt.Println("check failed:", f)
	}
	res.Correct = len(fails) == 0 && res.Attempted > 0
	fmt.Printf("checks: %d runs, %d failed, %d failed checks; failed_frac %.4g\n",
		res.Attempted, res.Failed, len(fails), float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	return res
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// provenance records what a result was measured on.
func provenance(root string) (map[string]any, error) {
	dir := filepath.Join(root, "provenance")
	wal, err := walAppendUs(dir)
	if err != nil {
		return nil, err
	}
	manifest, err := manifestSaveUs(dir)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"go":                     runtime.Version(),
		"commit":                 commit(),
		"source_sha256":          sourceDigest(),
		"data_fs":                fsType(root),
		"store.wal_append_us":    wal,
		"store.manifest_save_us": manifest,
	}, nil
}

// commit reads HEAD from .git when the checkout is a git repository.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module file outside the
// benchmark, identifying the measured code where no commit is known.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
