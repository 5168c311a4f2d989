package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies what was measured and where. Wall-time numbers
// are comparable only between runs whose Host parts are equal.
type fingerprint struct {
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
	TopkdHash string `json:"topkdSha256"`
	Host      host   `json:"host"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
}

func takeFingerprint(root, topkdBin string) (fingerprint, error) {
	data, err := os.ReadFile(topkdBin)
	if err != nil {
		return fingerprint{}, err
	}
	sum := sha256.Sum256(data)
	fp := fingerprint{
		Commit:    "unknown",
		TopkdHash: hex.EncodeToString(sum[:]),
		Host: host{
			CPU:        cpuModel(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
	}
	if bi, err := buildinfo.ReadFile(topkdBin); err == nil {
		fp.Host.GoVersion = bi.GoVersion
	}
	// Stop git at the tree's own root: a checkout that is not a
	// repository must not pick up an enclosing one.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if c, err := git("rev-parse", "HEAD"); err == nil {
		fp.Commit = c
		if st, err := git("status", "--porcelain"); err == nil {
			fp.Dirty = st != ""
		}
	}
	return fp, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
