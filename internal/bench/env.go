package bench

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// CaptureEnv records the measurement environment of the current process.
// Fields the harness controls (Quick, Seed) are left
// for the caller to fill in.
func CaptureEnv() Environment {
	return Environment{
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// gitRev resolves the current commit: CI exposes it as GITHUB_SHA; locally
// we ask git. Absence is recorded as empty, never an error — a report from
// an exported tree is still a report.
func gitRev() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the CPU model name where the OS exposes one.
func cpuModel() string {
	if runtime.GOOS != "linux" {
		return ""
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
