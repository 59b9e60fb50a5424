// Command l2qstore builds and inspects binary corpus stores (internal/store).
//
// Usage:
//
//	l2qstore build -out researchers.l2q -domain researchers -entities 996 -pages 50
//	l2qstore info -in researchers.l2q
//	l2qstore export -in researchers.l2q -site ./public   (static HTML site)
//	l2qstore domains -in researchers.l2q -out researchers.domains
//
// The domains subcommand precomputes the domain phase over a store file:
// it trains the aspect classifiers and learns every aspect's domain model
// (mirroring exactly what l2qserve would learn lazily on first harvest),
// then persists them as a domain artifact (magic L2QDOM1) that
// `l2qserve -store ... -domains ...` boots warm from.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/types"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "domains":
		err = runDomains(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "l2qstore: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: l2qstore {build|info|export|domains} [flags]")
	os.Exit(2)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("out", "corpus.l2q", "output store file")
	domain := fs.String("domain", "researchers", "researchers or cars")
	entities := fs.Int("entities", 100, "corpus entities")
	pages := fs.Int("pages", 30, "pages per entity")
	seed := fs.Uint64("seed", 2016, "corpus seed")
	noIndex := fs.Bool("noindex", false, "skip the inverted-index section")
	fs.Parse(args)

	cfg := synth.DefaultConfig(corpus.Domain(*domain))
	cfg.NumEntities = *entities
	cfg.PagesPerEntity = *pages
	cfg.Seed = *seed
	g, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	// The index and the store's dictionary and page sections each read
	// every page: tokenized once here and kept, a page serves all three
	// instead of being tokenized by each.
	for _, p := range g.Corpus.Pages {
		p.Tokens()
	}
	var idx *search.Index
	if !*noIndex {
		idx = search.BuildIndex(g.Corpus.Pages)
	}
	if err := store.SaveFile(*out, g.Corpus, idx); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d entities, %d pages, %.1f MiB\n",
		*out, g.Corpus.NumEntities(), g.Corpus.NumPages(), float64(fi.Size())/(1<<20))
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "corpus.l2q", "store file")
	fs.Parse(args)

	b, err := store.LoadFile(*in, nil)
	if err != nil {
		return err
	}
	st := b.Corpus.ComputeStats()
	fmt.Printf("domain      %s\n", st.Domain)
	fmt.Printf("entities    %d\n", st.Entities)
	fmt.Printf("pages       %d\n", st.Pages)
	fmt.Printf("paragraphs  %d\n", st.Paragraphs)
	fmt.Printf("tokens      %d\n", st.Tokens)
	if b.Index != nil {
		fmt.Printf("index       %d terms, %d docs\n", b.Index.NumTerms(), b.Index.NumDocs())
	} else {
		fmt.Println("index       (none)")
	}
	aspects := make([]corpus.Aspect, 0, len(st.ParasByAspect))
	for a := range st.ParasByAspect {
		aspects = append(aspects, a)
	}
	sort.Slice(aspects, func(i, j int) bool { return aspects[i] < aspects[j] })
	for _, a := range aspects {
		fmt.Printf("  %-14s %d paragraphs\n", a, st.ParasByAspect[a])
	}
	return nil
}

// runDomains precomputes the domain phase for a store file. The protocol
// mirrors l2qserve's lazy path exactly — classifiers trained on the whole
// served corpus, domain models learned over the canonical first-half
// entity sample — so a warm boot selects byte-identically to a cold one.
func runDomains(args []string) error {
	fs := flag.NewFlagSet("domains", flag.ExitOnError)
	in := fs.String("in", "corpus.l2q", "store file to learn from")
	out := fs.String("out", "corpus.domains", "output domain-artifact file")
	fs.Parse(args)

	b, err := store.LoadFile(*in, nil)
	if err != nil {
		return err
	}
	c := b.Corpus
	if len(c.Aspects()) == 0 {
		return fmt.Errorf("corpus %s carries no aspect labels to learn from", *in)
	}
	// One shared protocol with l2qserve's lazy path (store.DomainLearner),
	// so the precomputed artifact is byte-identical to what a cold boot
	// would learn.
	start := time.Now()
	ln := store.NewDomainLearner(c, b.Tokenizer, types.NewRegexRecognizer(), nil, nil)
	art, err := ln.Artifact()
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	if err := store.SaveDomainsFile(*out, art); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d domain models + %d classifiers over %d entities (%.1f KiB, %v)\n",
		*out, len(art.Models), len(art.Classifiers), len(ln.DomainIDs),
		float64(fi.Size())/(1<<10), time.Since(start).Round(time.Millisecond))
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("in", "corpus.l2q", "store file")
	siteDir := fs.String("site", "public", "output directory for the HTML site")
	fs.Parse(args)

	b, err := store.LoadFile(*in, nil)
	if err != nil {
		return err
	}
	site := html.RenderSite(b.Corpus)
	for path, doc := range site {
		full := filepath.Join(*siteDir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(doc), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("exported %d HTML files to %s\n", len(site), *siteDir)
	return nil
}
