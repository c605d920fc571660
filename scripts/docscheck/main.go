// Command docscheck enforces the repository's documentation contract:
//
//  1. every exported identifier in the audited packages carries a doc
//     comment, so `go doc` output reads as a specification;
//  2. every intra-repository markdown link resolves to a file that
//     exists;
//  3. every file under docs/ is reachable from README.md by following
//     intra-repository markdown links (no orphaned documentation);
//  4. every fenced `go` code block in README.md and docs/*.md parses and
//     is gofmt-clean, so documentation snippets stay compilable prose.
//
// CI runs it on every push (the docs job); run it locally with:
//
//	go run ./scripts/docscheck
//
// Exit status is non-zero when any check fails, with one line per
// violation.
package main

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// auditedPackages are the directories whose exported identifiers must all
// be documented (the packages the incremental and sharded engines live
// in; extend as further packages are brought up to spec).
var auditedPackages = []string{
	"internal/loadgen",
	"internal/market",
	"internal/metrics",
	"internal/plan",
	"internal/serve",
	"internal/store",
	"internal/support",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	for _, pkg := range auditedPackages {
		p, err := checkDocComments(filepath.Join(root, pkg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	for _, check := range []func(string) ([]string, error){
		checkMarkdownLinks,
		checkDocsReachable,
		checkGoBlocks,
	} {
		p, err := check(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkDocComments reports every exported declaration in dir (tests
// excluded) that lacks a doc comment.
func checkDocComments(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// exportedReceiver reports whether a function is package-level or a method
// on an exported type (methods on unexported types need no doc).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks reports intra-repository markdown links whose target
// files do not exist. External links (http, https, mailto) and pure
// anchors are skipped; anchored file links are checked for the file part.
func checkMarkdownLinks(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || (name != "." && strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					out = append(out, fmt.Sprintf("%s:%d: broken link %q", path, i+1, m[1]))
				}
			}
		}
		return nil
	})
	return out, err
}

// mdLinkTargets extracts the intra-repository markdown link targets of one
// file, resolved relative to it (external links and pure anchors skipped).
func mdLinkTargets(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if idx := strings.IndexByte(target, '#'); idx >= 0 {
			target = target[:idx]
		}
		if target == "" {
			continue
		}
		out = append(out, filepath.Clean(filepath.Join(filepath.Dir(path), target)))
	}
	return out, nil
}

// checkDocsReachable walks the markdown link graph from README.md and
// reports every docs/*.md file no link path reaches: documentation nobody
// can discover from the front page is as good as missing.
func checkDocsReachable(root string) ([]string, error) {
	readme := filepath.Join(root, "README.md")
	if _, err := os.Stat(readme); err != nil {
		return []string{fmt.Sprintf("%s: missing README.md (docs reachability root)", root)}, nil
	}
	reached := map[string]bool{filepath.Clean(readme): true}
	frontier := []string{filepath.Clean(readme)}
	for len(frontier) > 0 {
		path := frontier[0]
		frontier = frontier[1:]
		if !strings.HasSuffix(path, ".md") {
			continue
		}
		targets, err := mdLinkTargets(path)
		if err != nil {
			continue // broken links are reported by checkMarkdownLinks
		}
		for _, tgt := range targets {
			if !reached[tgt] {
				reached[tgt] = true
				frontier = append(frontier, tgt)
			}
		}
	}
	var out []string
	docsDir := filepath.Join(root, "docs")
	entries, err := os.ReadDir(docsDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".md") {
			continue
		}
		path := filepath.Clean(filepath.Join(docsDir, e.Name()))
		if !reached[path] {
			out = append(out, fmt.Sprintf("%s: not reachable from README.md via markdown links", path))
		}
	}
	return out, nil
}

// goFence matches the opening of a fenced go code block.
var goFence = regexp.MustCompile("^```go\\s*$")

// checkGoBlocks gofmt-checks every fenced `go` block in README.md and
// docs/*.md: each block must parse as a Go source fragment (declarations
// or statements) and be byte-identical to its gofmt rendering.
func checkGoBlocks(root string) ([]string, error) {
	var files []string
	files = append(files, filepath.Join(root, "README.md"))
	if entries, err := os.ReadDir(filepath.Join(root, "docs")); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
				files = append(files, filepath.Join(root, "docs", e.Name()))
			}
		}
	}
	var out []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		lines := strings.Split(string(data), "\n")
		for i := 0; i < len(lines); i++ {
			if !goFence.MatchString(lines[i]) {
				continue
			}
			start := i + 1
			end := start
			for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
				end++
			}
			block := strings.Join(lines[start:end], "\n")
			i = end
			formatted, err := format.Source([]byte(block))
			if err != nil {
				out = append(out, fmt.Sprintf("%s:%d: go block does not parse: %v", path, start, err))
				continue
			}
			if strings.TrimRight(string(formatted), "\n") != strings.TrimRight(block, "\n") {
				out = append(out, fmt.Sprintf("%s:%d: go block is not gofmt-clean", path, start))
			}
		}
	}
	return out, nil
}
