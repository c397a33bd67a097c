// dpml-lint runs the repo's eight invariant analyzers — six
// per-package (walltime, globalrand, maprange, waitcheck, floateq,
// prio) and two whole-module call-graph passes (lpown, sendpath) —
// over the module and exits non-zero on findings, so CI
// fails loudly. See internal/lint for what each analyzer proves
// and CONTRIBUTING.md for the //dpml:allow suppression syntax and the
// //dpml:owner annotation discipline.
//
// Usage:
//
//	dpml-lint [-list] [-suppressions] [packages]
//
// With no package arguments (or "./..."), the whole module is analyzed.
// Explicit arguments name module directories ("internal/sim", "./cmd/...").
// -suppressions prints the audit table of every //dpml:allow site
// (file:line, analyzer, reason) instead of running analyzers.
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dpml/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpml-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	sups := fs.Bool("suppressions", false, "print the //dpml:allow audit table and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dpml-lint [-list] [-suppressions] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "dpml-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "dpml-lint:", err)
		return 2
	}

	var pkgs []*lint.Package
	rest := fs.Args()
	if len(rest) == 0 || (len(rest) == 1 && (rest[0] == "./..." || rest[0] == "...")) {
		pkgs, err = loader.LoadAll()
		if err != nil {
			fmt.Fprintln(stderr, "dpml-lint:", err)
			return 2
		}
	} else {
		for _, arg := range rest {
			ip, err := argToImportPath(root, loader.ModPath, arg)
			if err != nil {
				fmt.Fprintln(stderr, "dpml-lint:", err)
				return 2
			}
			pkg, err := loader.Load(ip)
			if err != nil {
				fmt.Fprintln(stderr, "dpml-lint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	if *sups {
		for _, sup := range lint.Suppressions(pkgs) {
			analyzer := sup.Analyzer
			if analyzer == "" {
				analyzer = "(malformed)"
			}
			reason := sup.Reason
			if reason == "" {
				reason = "(no reason)"
			}
			fmt.Fprintf(stdout, "%s:%d\t%s\t%s\n", sup.Pos.Filename, sup.Pos.Line, analyzer, reason)
		}
		return 0
	}

	findings := lint.RunModule(pkgs, loader.Loaded(), lint.Analyzers())
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "dpml-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// argToImportPath maps a package argument (import path or directory,
// optionally with a /... suffix that is treated as the directory itself)
// to a module import path.
func argToImportPath(root, modPath, arg string) (string, error) {
	arg = strings.TrimSuffix(strings.TrimSuffix(arg, "/..."), "/")
	if arg == "." || arg == "" {
		return modPath, nil
	}
	if arg == modPath || strings.HasPrefix(arg, modPath+"/") {
		return arg, nil
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("package %q is outside the module", arg)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}
