package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostFacts are the machine facts a number needs beside it.
type hostFacts struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	Go         string
	Kernel     string
}

func readHost() hostFacts {
	h := hostFacts{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

func (h hostFacts) String() string {
	return fmt.Sprintf("cpu=%q num_cpu=%d gomaxprocs=%d go=%s kernel=%s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Kernel)
}
