package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// header records the machine shape and build a set of numbers came from, so
// that drift between machines can be told from a change in the code.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	CalibMS    float64 `json:"bench.calib_ms"`
}

func newHeader(seed int64) header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		// One sort of a million: the same loop as the window's probes, long
		// enough to compare machines by.
		CalibMS: newProber(1 << 20).run(),
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays unknown; the ceiling keeps git from adopting a repository
	// above the working directory.
	if out, err := git("rev-parse", "HEAD"); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		status, err := git("status", "--porcelain")
		h.Dirty = err != nil || len(status) > 0
	}
	return h
}

func git(args ...string) ([]byte, error) {
	cmd := exec.Command("git", args...)
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	return cmd.Output()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the user plus system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
