package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA checks the ruler against itself: every workload runs in two
// interleaved sets of n processes of this same binary, each process with
// a seed of its own (set A 1..n, set B n+1..2n), and for every end-to-end
// metric the two set medians must agree within half the metric's bound.
// It also prints each set's interquartile spread as a share of its
// median, which is what the benchmark contract's acceptance looks at.
func runAA(n, seconds int) int {
	if n < 5 {
		fmt.Fprintln(os.Stderr, "bench: -aa wants at least 5 runs per set")
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// values[workload][metric][set] = one value per run.
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range bf.Workloads {
			if values[w.Name] == nil {
				values[w.Name] = map[string]*[2][]float64{}
			}
			// Alternate which set goes first, so neither always runs on
			// the caches the other left behind.
			for _, set := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				seed := 1 + i + set*n
				res, err := runChild(self, w.Name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "aa: %s set %c seed %d done\n", w.Name, 'A'+set, seed)
				for name, m := range res.Metrics {
					if values[w.Name][name] == nil {
						values[w.Name][name] = &[2][]float64{}
					}
					values[w.Name][name][set] = append(values[w.Name][name][set], m.Value)
				}
			}
		}
	}

	fmt.Printf("%-16s %-20s %12s %12s %7s %7s %7s %6s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound")
	failed := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			v := values[w.Name][m.Name]
			if v == nil {
				fmt.Printf("%-16s %-20s missing\n", w.Name, m.Name)
				failed++
				continue
			}
			a, b := median(v[0][:]), median(v[1][:])
			gap := (b - a) / a // every end-to-end metric is lower-is-better
			if gap < 0 {
				gap = (a - b) / b
			}
			verdict := ""
			if gap > m.Bound/2 {
				verdict = "  FAIL: sets disagree by more than half the bound"
				failed++
			}
			fmt.Printf("%-16s %-20s %12.6g %12.6g %6.1f%% %6.1f%% %6.1f%% %5.0f%%%s\n",
				w.Name, m.Name, a, b, 100*gap, 100*spread(v[0][:]), 100*spread(v[1][:]), 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("A/A failed on %d metric/workload pairs\n", failed)
		return 1
	}
	fmt.Println("A/A passed: every pair of set medians agrees within half its bound")
	return 0
}

// runChild runs one workload in a process of its own and parses the
// result line.
func runChild(self, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, tail(stdout.String(), 15))
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("reported incorrect outputs")
	}
	return res, nil
}

func tail(s string, lines int) string {
	all := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}
