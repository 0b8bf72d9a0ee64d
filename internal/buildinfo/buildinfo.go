// Package buildinfo reports the binary's build metadata (module version,
// VCS revision, Go toolchain) via runtime/debug.ReadBuildInfo — the data
// behind the -version flag of robopt/roboptd and the /statz version fields.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Version returns the main module's version as stamped by the Go toolchain
// ("(devel)" for plain `go build` trees without a module version).
func Version() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// revision returns the VCS revision the binary was built from, with a
// "-dirty" suffix for modified trees, or "" when the build carries no VCS
// stamp.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

// GoVersion returns the Go toolchain version the binary was built with.
func GoVersion() string { return runtime.Version() }

// String formats the full build line for a command's -version output.
func String(cmd string) string {
	s := fmt.Sprintf("%s %s (%s)", cmd, Version(), GoVersion())
	if rev := revision(); rev != "" {
		s += " " + rev
	}
	return s
}
