package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// gitRev returns the commit the checkout is at, read from .git without
// running git, or "none" when the checkout is not a repository.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return shortRev(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return shortRev(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return shortRev(rev)
		}
	}
	return "unknown"
}

func shortRev(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// sourceDigest hashes every Go source and go.mod in the checkout, so
// two results can be tied to the same code even where there is no git
// metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MiB,
// or NaN where /proc does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return math.NaN()
		}
		return kb / 1024
	}
	return math.NaN()
}

// cpuTimes is the machine-wide CPU time split /proc/stat reports, in
// clock ticks: the time a hypervisor took from this machine's CPUs
// (steal) and the total.
type cpuTimes struct{ steal, total uint64 }

// readCPUTimes returns the current split, or zeros where /proc/stat is
// missing.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince returns the share of CPU time stolen since before, in
// percent: the host's other tenants, not this program, took it.
func (t cpuTimes) stealSince(before cpuTimes) float64 {
	if t.total <= before.total {
		return 0
	}
	return 100 * float64(t.steal-before.steal) / float64(t.total-before.total)
}
