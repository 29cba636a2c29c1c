package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The fold: every sample of a CPU profile goes to exactly one layer.
//
//   - "GC" if any frame on its stack is the background mark worker, a mark
//     assist, the sweeper or the scavenger;
//   - else "malloc" if the allocator is among its six innermost frames;
//   - else the innermost package of this module on its stack, by the last
//     element of its path (a test package counts as the package it tests;
//     `proc` and `workload` are "bodies");
//   - else "rest" (the runtime's scheduler, the testing driver, syscalls).
//
// A share is a ratio within one profile, so host drift moves it less than
// it moves the seconds.
const module = "demosmp"

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// mallocDepth is how many innermost frames are searched for the allocator.
const mallocDepth = 6

// layerOf returns the layer of one sample's stack, innermost frame first.
func layerOf(stack []string) string {
	for _, f := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(f, root) {
				return "GC"
			}
		}
	}
	for _, f := range stack[:min(len(stack), mallocDepth)] {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "malloc"
		}
	}
	for _, f := range stack {
		path := pkgPath(f)
		if path != module && !strings.HasPrefix(path, module+"/") {
			continue
		}
		name := strings.TrimSuffix(path[strings.LastIndex(path, "/")+1:], "_test")
		if name == "proc" || name == "workload" {
			return "bodies"
		}
		return name
	}
	return "rest"
}

// pkgPath returns the import path of a function symbol as pprof prints it
// ("demosmp/internal/kernel.(*Kernel).runSlice" is in
// "demosmp/internal/kernel"): everything before the first dot after the
// last slash, the slash searched for only ahead of any type argument list.
func pkgPath(fn string) string {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parseTraces sums a `go tool pprof -traces` output's samples by layer, in
// seconds. Each sample is a block after a separator line: optional label
// lines ("key:  values"), then the sample's value beside its innermost
// frame, then one frame a line.
func parseTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var stack []string
	var value float64
	inSample := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 1 && strings.HasPrefix(f[0], "-----------+"):
			if len(stack) > 0 {
				out[layerOf(stack)] += value
			}
			stack, inSample = stack[:0], true
		case !inSample || len(f) == 0 || strings.HasSuffix(f[0], ":"):
			// the header, or a sample's label line
		case len(stack) == 0:
			if len(f) < 2 {
				return nil, fmt.Errorf("sample line %q has no frame", sc.Text())
			}
			secs, err := parseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("sample value %q: %v", f[0], err)
			}
			value = secs
			stack = append(stack, f[1])
		default:
			stack = append(stack, f[0])
		}
	}
	if len(stack) > 0 {
		out[layerOf(stack)] += value
	}
	return out, sc.Err()
}

// parseDuration reads a sample value as pprof formats a CPU time.
func parseDuration(v string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"mins", 60}, {"min", 60}, {"hrs", 3600}, {"s", 1}} {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			return f * u.scale, err
		}
	}
	return 0, fmt.Errorf("no time unit")
}

// foldFiles prints one markdown table with a column per traces file: each
// layer's seconds and share, rows by the first file's seconds, "rest" last.
func foldFiles(w io.Writer, files []string) error {
	sums := make([]map[string]float64, len(files))
	totals := make([]float64, len(files))
	var layers []string
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		sums[i], err = parseTraces(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		for l, v := range sums[i] {
			totals[i] += v
			if !slices.Contains(layers, l) {
				layers = append(layers, l)
			}
		}
	}
	last := func(l string) int {
		if l == "rest" {
			return 1
		}
		return 0
	}
	slices.SortFunc(layers, func(a, b string) int {
		if c := cmp.Compare(last(a), last(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(sums[0][b], sums[0][a]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	fmt.Fprint(w, "| layer |")
	for _, name := range files {
		fmt.Fprintf(w, " %s |", name)
	}
	fmt.Fprint(w, "\n|---|")
	for range files {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, l := range layers {
		switch l {
		case "GC", "malloc", "bodies", "rest":
			fmt.Fprintf(w, "| %s |", l)
		default: // a package
			fmt.Fprintf(w, "| `%s` |", l)
		}
		for i := range files {
			share := 0.0
			if totals[i] > 0 {
				share = 100 * sums[i][l] / totals[i]
			}
			fmt.Fprintf(w, " %.2f s (%.1f %%) |", sums[i][l], share)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "| total |")
	for i := range files {
		fmt.Fprintf(w, " %.2f s |", totals[i])
	}
	fmt.Fprintln(w)
	return nil
}
