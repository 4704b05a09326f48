package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const schema = "rcoe-benchmark/v1"

// hostInfo is the fingerprint written into every result file, so two
// files can be told apart when their numbers differ: a different machine,
// Go release or commit, or a host that was busy when the run started.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1m  float64 `json:"loadavg_1m"`
	GitCommit  string  `json:"git_commit"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg1m:  -1,
		GitCommit:  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1m = v
			}
		}
	}
	// Best effort: a checkout exported without .git has no commit to name,
	// and git must not go looking for one in the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// busyLoad is the 1-minute load average at the start of a suite above
// which something else is using the host and the medians will move.
const busyLoad = 1.0

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
	// Probes holds the workload-independent layer probes when they ran
	// once for the whole suite (-all) rather than inside a traced pass.
	Probes map[string]metricValue `json:"probes,omitempty"`
}

// validate checks every name a result file carries.
func (f *resultFile) validate() error {
	if f.Schema != schema {
		return fmt.Errorf("schema %q, want %q", f.Schema, schema)
	}
	for _, w := range f.Workloads {
		if !validName(w.Name) {
			return fmt.Errorf("invalid workload name %q", w.Name)
		}
		for name := range w.EndToEnd {
			if !validName(name) {
				return fmt.Errorf("%s: invalid metric name %q", w.Name, name)
			}
		}
		for name := range w.PerLayer {
			if !validName(name) {
				return fmt.Errorf("%s: invalid metric name %q", w.Name, name)
			}
		}
	}
	for name := range f.Probes {
		if !validName(name) {
			return fmt.Errorf("invalid probe name %q", name)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// expectedFile is benchmark/expected.json: the simulated statistics of
// every workload at expectedSeed and full scale. A change that only makes
// the simulator faster must reproduce every number in it.
type expectedFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]uint64 `json:"workloads"`
}

const expectedSeed = 1
