// Command ab is the benchmark's same-host A/B helper. Run it inside the
// repository (it works from the repository root):
//
//	cd perfbench && go run ./ab -base <rev> [-workloads clip,batch] [-n 10]
//
// It checks the parent rev out into a temporary git worktree, copies the
// current perfbench directory over it so both sides run identical
// benchmark code, and runs parent/change pairs in alternating order (the
// change first on odd pairs), each pair on its own seed. The change side
// is the working tree the helper runs in. For every end-to-end metric
// of BENCHMARK.json it prints each side's median and quartiles, the
// change's wins, and the verdict of the paired-run rule: a gain needs at
// least nine tenths of the pairs won and a median gap above the parent's
// interquartile distance.
//
// Both modes take at least minRuns pairs or runs per workload, the fewest
// the rule is defined for.
//
// With -spread it runs only the working tree, once per seed, and prints
// each metric's quartiles and spread (interquartile distance over median)
// against the metric's bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"polyclip/perfbench/stat"
)

// spec is the part of BENCHMARK.json the helper reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// minRuns is the fewest pairs (or, with -spread, runs) per workload.
const minRuns = 10

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run() error {
	base := flag.String("base", "", "parent revision")
	wls := flag.String("workloads", "", "comma-separated workloads (default: all)")
	pairs := flag.Int("n", minRuns, "parent/change pairs per workload (runs per workload with -spread)")
	seed := flag.Int64("seed", 1000, "first seed; pair (or run) i uses seed+i")
	spread := flag.Bool("spread", false, "run the working tree once per seed and print spreads")
	flag.Parse()

	root, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("find the repository root: %w", err)
	}
	if err := os.Chdir(strings.TrimSpace(string(root))); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := strings.Split(*wls, ",")
	if *wls == "" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	if *pairs < minRuns {
		return fmt.Errorf("-n must be at least %d", minRuns)
	}

	if *spread {
		for _, w := range names {
			runs := make([]result, 0, *pairs)
			for i := 0; i < *pairs; i++ {
				r, err := bench(".", sp, w, *seed+int64(i))
				if err != nil {
					return err
				}
				runs = append(runs, r)
			}
			printSpread(sp, w, runs)
		}
		return nil
	}

	if *base == "" {
		return errors.New("-base is required")
	}
	tmp, err := os.MkdirTemp("", "perfbench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	parentDir, err := checkout(tmp, *base)
	if err != nil {
		return err
	}
	defer removeWorktree(parentDir)
	const changeDir = "."

	for _, w := range names {
		var ps, cs []result
		for i := 0; i < *pairs; i++ {
			s := *seed + int64(i)
			order := []string{parentDir, changeDir}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			out := map[string]result{}
			for _, dir := range order {
				r, err := bench(dir, sp, w, s)
				if err != nil {
					return err
				}
				out[dir] = r
			}
			ps, cs = append(ps, out[parentDir]), append(cs, out[changeDir])
		}
		printAB(sp, w, ps, cs)
	}
	return nil
}

// checkout adds a detached worktree of rev under tmp and copies the
// current benchmark directories over it.
func checkout(tmp, rev string) (string, error) {
	dir := filepath.Join(tmp, "parent")
	if out, err := exec.Command("git", "worktree", "add", "--detach", dir, rev).CombinedOutput(); err != nil {
		return "", fmt.Errorf("git worktree add %s: %v\n%s", rev, err, out)
	}
	if err := copyTree("perfbench", filepath.Join(dir, "perfbench")); err != nil {
		removeWorktree(dir)
		return "", err
	}
	if err := copyFile("BENCHMARK.json", filepath.Join(dir, "BENCHMARK.json")); err != nil {
		removeWorktree(dir)
		return "", err
	}
	return dir, nil
}

func removeWorktree(dir string) {
	if out, err := exec.Command("git", "worktree", "remove", "--force", dir).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "ab: git worktree remove %s: %v\n%s", dir, err, out)
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		return copyFile(path, filepath.Join(dst, rel))
	})
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// bench runs the benchmark command in dir and parses its last line.
func bench(dir string, sp spec, workload string, seed int64) (result, error) {
	args := append(append([]string(nil), sp.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s %s seed %d: %v\n%s", dir, workload, seed, err, stderr.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("%s %s seed %d: bad result line %q: %v", dir, workload, seed, last, err)
	}
	fmt.Fprintf(os.Stderr, "ab: %s %s seed %d: correct=%v failed=%d/%d\n", dir, workload, seed, r.Correct, r.Failed, r.Attempted)
	return r, nil
}

func values(runs []result, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[metric].Value)
	}
	return v
}

func printAB(sp spec, workload string, parent, change []result) {
	fmt.Printf("\n%s (%d pairs)\n", workload, len(parent))
	fmt.Printf("%-18s %-6s %28s %28s %5s  %s\n", "metric", "unit", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, m := range sp.EndToEnd {
		p, c := values(parent, m.Name), values(change, m.Name)
		v, wins := stat.Judge(p, c, m.Better == "lower", m.Bound)
		fmt.Printf("%-18s %-6s %28s %28s %2d/%-2d  %s\n", m.Name, m.Unit, quart(p), quart(c), wins, len(p), v)
	}
}

func printSpread(sp spec, workload string, runs []result) {
	fmt.Printf("\n%s (%d seeds)\n", workload, len(runs))
	fmt.Printf("%-18s %-6s %28s %8s %8s\n", "metric", "unit", "q1/median/q3", "spread", "bound")
	for _, m := range sp.EndToEnd {
		v := values(runs, m.Name)
		fmt.Printf("%-18s %-6s %28s %8.4f %8.2f\n", m.Name, m.Unit, quart(v), stat.Spread(v), m.Bound)
	}
}

func quart(v []float64) string {
	q1, q2, q3 := stat.Quartiles(v)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}
