package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Header is the provenance of a result file.
type Header struct {
	When       string  `json:"when"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpuModel"`
	OutFS      string  `json:"outFilesystem"` // filesystem type under the temp stores
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// ResultFile is out/result.json: every run of one suite invocation. Untraced
// runs carry the end-to-end metrics (several per workload with --runs),
// traced runs the per-layer ones.
type ResultFile struct {
	Header   Header       `json:"header"`
	EndToEnd []MetricDecl `json:"endToEnd"`
	PerLayer []MetricDecl `json:"perLayer"`
	Runs     []*RunResult `json:"runs"`
}

func header(cfg Config) Header {
	h := Header{
		When:       time.Now().UTC().Format(time.RFC3339),
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		OutFS:      "unknown",
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The mount with the longest mount point that is a prefix of the output
	// directory holds it.
	if abs, err := filepath.Abs(cfg.OutDir); err == nil {
		if raw, err := os.ReadFile("/proc/mounts"); err == nil {
			best := ""
			for _, line := range strings.Split(string(raw), "\n") {
				f := strings.Fields(line)
				if len(f) >= 3 && len(f[1]) >= len(best) && (abs == f[1] || strings.HasPrefix(abs, strings.TrimSuffix(f[1], "/")+"/")) {
					best, h.OutFS = f[1], f[2]
				}
			}
		}
	}
	return h
}

// child runs one workload in a process of its own, so that CPU, allocation
// and RSS counters belong to that workload alone, and reads back the full
// result the child left in the output directory.
func child(cfg Config, name string) (*RunResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(cfg.Seed),
		"--seconds", fmt.Sprint(cfg.Seconds), "--trace", fmt.Sprint(traceFlag(cfg)))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	os.Remove(runFile(cfg, name)) // a child that dies must not be read as its predecessor
	runErr := cmd.Run()
	raw, err := os.ReadFile(runFile(cfg, name))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var res RunResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// suite runs every workload untraced (runs times, at consecutive seeds) and
// then traced, prints every metric as `workload metric value unit`, and
// writes out/result.json. It returns non-zero if any run was incorrect.
func suite(cfg Config, runs int) int {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file := ResultFile{Header: header(cfg), EndToEnd: endToEnd, PerLayer: perLayer}
	ok := true
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			n := runs
			if traced {
				n = 1
			}
			for i := 0; i < n; i++ {
				c := cfg
				c.Traced, c.Seed = traced, cfg.Seed+int64(i)
				res, err := child(c, name)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					ok = false
					continue
				}
				file.Runs = append(file.Runs, res)
				ok = ok && res.correct()
			}
		}
	}
	fmt.Println("--- summary: workload metric value unit")
	for _, r := range file.Runs {
		printResult(r)
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.OutDir, "result.json"), raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
