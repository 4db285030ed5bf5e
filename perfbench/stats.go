package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// rank returns the 1-based nearest-rank position of the p-th percentile
// among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(float64(n)*p/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs (xs is not
// modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// weightedMedian returns the value at which half of the total weight lies
// at or below: with per-execution ns/access weighted by the execution's
// accesses, the cost per access that half of all accesses were served at.
// Unlike the execution-count median it does not land on the gap between
// two programs' clusters when the workload runs an even number of them.
func weightedMedian(xs, ws []float64) float64 {
	idx := make([]int, len(xs))
	var total float64
	for i := range idx {
		idx[i] = i
		total += ws[i]
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	var cum float64
	for _, i := range idx {
		cum += ws[i]
		if cum >= total/2 {
			return xs[i]
		}
	}
	return 0
}

// procStatusKB reads one "Key: N kB" field of /proc/self/status.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) > 0 {
			v, _ := strconv.ParseFloat(fields[0], 64)
			return v
		}
	}
	return 0
}

// environment records what a result was measured on.
type environment struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func currentEnvironment(root string) environment {
	return environment{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
	}
}

// gitCommit returns HEAD of the git repository whose top level is root, or
// "unknown" when root is not one.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	lines := strings.Fields(string(out))
	if len(lines) != 2 {
		return "unknown"
	}
	top, err1 := filepath.EvalSymlinks(lines[0])
	abs, err2 := filepath.EvalSymlinks(root)
	if err1 != nil || err2 != nil || top != abs {
		return "unknown"
	}
	return lines[1]
}

// sourceDigest hashes every Go source and module file under root (outside
// dot-directories), identifying the measured code when there is no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
