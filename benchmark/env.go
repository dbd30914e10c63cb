package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// envInfo is the fingerprint stamped on every report: enough to tell whether
// two reports may be compared at all.
type envInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	LoadStart  float64 `json:"load_avg_start"`
	LoadEnd    float64 `json:"load_avg_end"`
	JournalDir string  `json:"journal_dir"`
	JournalFS  string  `json:"journal_fs"`
}

func fingerprint(journalDir string) envInfo {
	return envInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		LoadStart:  loadAvg(),
		JournalDir: journalDir,
		JournalFS:  fsName(journalDir),
	}
}

// loadWarning is non-empty when the machine was already busy at the start:
// numbers taken then carry someone else's work.
func (e envInfo) loadWarning() string {
	if e.LoadStart > float64(e.NProc)/2 {
		return fmt.Sprintf("WARNING: load average %.2f at start exceeds nproc/2 = %.1f; timings will carry other work's noise",
			e.LoadStart, float64(e.NProc)/2)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitCommit is the revision the toolchain stamped into the binary; a build
// outside a git checkout has none.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func loadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var one float64
	if _, err := fmt.Sscan(string(raw), &one); err != nil {
		return 0
	}
	return one
}

// fsName names the filesystem holding dir: the journal fsyncs there, so
// tmpfs and a disk are different experiments.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("fs-0x%x", uint32(st.Type))
	}
}
