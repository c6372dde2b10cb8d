// Command bench is the repository's benchmark: five healthy-fleet
// workloads against a 16-shard x 2-copy loopback fleet, eight end-to-end
// metrics per workload, and a serial probe that times each layer from
// outside. BENCHMARK.json at the root of the repository names it;
// README.md in this directory says why each workload and metric exists.
//
//	bash bench/run.sh                                   # every workload, both passes, tables
//	bash bench/run.sh -out new.json                     # ... and a result file
//	bash bench/run.sh -compare old.json new.json        # verdict per workload x metric; exit 1 on any worse
//	bash bench/run.sh --workload point_hot --seed 1 --seconds 12 --trace 0
//
// The last form is the driver's: one workload, one pass (--trace 0 the
// end-to-end metrics, --trace 1 the per-layer ones), and as the last line
// of standard output one JSON object with correct, attempted, failed and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

// env stamps a result file with everything two files must share to be
// comparable.
type env struct {
	GitSHA        string            `json:"git_sha"`
	GitDirty      bool              `json:"git_dirty"`
	GoVersion     string            `json:"go_version"`
	NProc         int               `json:"nproc"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	Seed          int64             `json:"seed"`
	Clients       int               `json:"clients"`
	WindowSeconds float64           `json:"window_seconds"`
	Windows       int               `json:"windows"`
	WarmupSeconds [2]float64        `json:"warmup_seconds"`
	Fixture       string            `json:"fixture"`
	Transport     string            `json:"transport"`
	Texts         map[string]string `json:"texts"`
}

func (e env) String() string {
	sha := e.GitSHA
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if e.GitDirty {
		sha += "+dirty"
	}
	return fmt.Sprintf("%s, %s, %d/%d procs, seed %d, %d x %gs windows", sha, e.GoVersion, e.GOMAXPROCS, e.NProc, e.Seed, e.Windows, e.WindowSeconds)
}

func stamp(seed int64, p protocol) env {
	e := env{
		GitSHA:        "unknown", // a checkout that is not a git repository has none
		GoVersion:     runtime.Version(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          seed,
		Clients:       clients,
		WindowSeconds: (p.measure / time.Duration(p.windows)).Seconds(),
		Windows:       p.windows,
		WarmupSeconds: [2]float64{p.warmA.Seconds(), p.warmB.Seconds()},
		Fixture:       fmt.Sprintf("%d people and %d orders hash-partitioned over %d shards x %d copies", p.cfg.people, p.cfg.people*ordersPerPerson, p.cfg.shards, copies),
		Transport:     "loopback TCP, single process",
		Texts:         map[string]string{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitSHA = s.Value
			case "vcs.modified":
				e.GitDirty = s.Value == "true"
			}
		}
	}
	for _, w := range workloads {
		e.Texts[w.name] = w.text
	}
	return e
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	compare  bool
	spec     string
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's JSON line (default: all, as tables)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the query literals; the stored data does not depend on it")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per workload, split into 4 windows (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 probes the layers")
	flag.StringVar(&o.out, "out", "", "write the results, with the environment they were taken in, as JSON")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.StringVar(&o.spec, "spec", "", "path of BENCHMARK.json (default: the working directory, then its parent)")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	s, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two result files, old and new")
		}
		anyWorse, err := runCompare(os.Stdout, s, o.args[0], o.args[1])
		if err != nil {
			return err
		}
		if anyWorse {
			return fmt.Errorf("at least one row is worse")
		}
		return nil
	}
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected arguments %q", o.args)
	}
	if o.seconds <= 0 {
		o.seconds = s.RunSeconds
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	tp, ok := s.endToEnd("throughput_qps")
	if !ok {
		return fmt.Errorf("BENCHMARK.json lists no throughput_qps")
	}
	p := fullProtocol(time.Duration(o.seconds)*time.Second, tp.Bound)

	// ^C ends the run between queries; the fleet is then closed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	file := &resultFile{Env: stamp(o.seed, p), Workloads: map[string]*workloadResult{}}
	var driver *workloadResult // set when the run must end with the driver's line
	fmt.Printf("# %s\n# %s; %s\n", file.Env, file.Env.Fixture, file.Env.Transport)

	if o.workload == "" {
		for _, w := range workloads {
			res, err := runWorkload(ctx, w, o.seed, p, true, true)
			if err != nil {
				return err
			}
			file.Workloads[w.name] = res
			printResult(w.name, res)
		}
	} else {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runWorkload(ctx, w, o.seed, p, o.trace == 0, o.trace == 1)
		if err != nil {
			return err
		}
		file.Workloads[w.name] = res
		printResult(w.name, res)
		driver = res
	}
	if o.out != "" {
		if err := writeResult(o.out, file); err != nil {
			return err
		}
	}
	if driver != nil {
		return printDriverLine(driver)
	}
	return nil
}

// printResult prints every metric by name with its unit.
func printResult(name string, r *workloadResult) {
	fmt.Printf("\n== %s ==  %s\n", name, r.Text)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	if r.EndToEnd != nil {
		fmt.Fprintln(tw, "end-to-end metric\tmedian\tunit\tmin\tmax\t")
		for _, d := range endToEnd {
			s := r.EndToEnd[d.name]
			fmt.Fprintf(tw, "%s\t%.4f\t%s\t%.4f\t%.4f\t\n", d.name, s.Median, s.Unit, s.Min, s.Max)
		}
		fmt.Fprintf(tw, "failed_share\t%g\tratio\t\t\t(%d failed of %d attempted)\n", r.FailedShare, r.Failed, r.Attempted)
		fmt.Fprintf(tw, "samples per window\t%s\tcount\t\t\t\n", strings.Trim(fmt.Sprint(r.SamplesPerWindow), "[]"))
	}
	if r.PerLayer != nil {
		fmt.Fprintln(tw, "per-layer metric\tvalue\tunit\t\t\t")
		for _, d := range perLayer {
			v := r.PerLayer[d.name]
			fmt.Fprintf(tw, "%s\t%.4f\t%s\t\t\t\n", d.name, v.Value, v.Unit)
		}
	}
	tw.Flush()
}

// printDriverLine prints the one JSON object the driver reads off the last
// line: every end-to-end metric, or every per-layer metric, never both.
func printDriverLine(r *workloadResult) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for name, s := range r.EndToEnd {
		metrics[name] = metric{s.Median, s.Unit}
	}
	if r.EndToEnd == nil {
		for name, v := range r.PerLayer {
			metrics[name] = metric{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
