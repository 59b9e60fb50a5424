// Command l2qexp regenerates every table and figure of the paper's
// evaluation section (§VI) on the synthetic corpora and prints them in the
// paper's layout. See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
//
// Usage:
//
//	l2qexp [-domain researchers|cars|both] [-fig all|9|10|11|12|13|14|crawl|budget]
//	       [-entities N] [-pages N] [-domainsample N] [-test N] [-val N]
//	       [-seed N] [-cv] [-r0star X] [-quick] [-splits N] [-json]
//
// Beyond the paper's figures, -fig crawl runs the extension experiment
// comparing query-driven harvesting against a link-following focused
// crawler at an equal download budget, -fig budget compares fixed-equal
// vs adaptive cross-entity query-budget allocation at the same global
// spend (the scheduler's BudgetPolicy), and Fig. 13 output includes
// paired significance tests (sign test + bootstrap) of L2QBAL against
// every baseline.
//
// With -json, every figure additionally emits one machine-readable JSON
// line ({"figure":...,"domain":...,"data":...}) alongside the printed
// table, for scripts that consume the figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/eval"
	"l2q/internal/synth"
)

// jsonOut mirrors the -json flag: emit one JSON object per figure/series.
var jsonOut bool

// emitJSON writes one machine-readable result line to stdout.
func emitJSON(figure string, domain corpus.Domain, data any) {
	if !jsonOut {
		return
	}
	line, err := json.Marshal(map[string]any{
		"figure": figure,
		"domain": string(domain),
		"data":   data,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "l2qexp: json: %v\n", err)
		return
	}
	fmt.Println(string(line))
}

func main() {
	var (
		domain       = flag.String("domain", "both", "researchers, cars, or both")
		fig          = flag.String("fig", "all", "figure to regenerate: 9|10|11|12|13|14|crawl|budget|9crf|all")
		jsonFlag     = flag.Bool("json", false, "emit one machine-readable JSON line per figure alongside the tables")
		entities     = flag.Int("entities", 0, "entities in the corpus (0 = paper scale)")
		pages        = flag.Int("pages", 0, "pages per entity (0 = paper's 50)")
		domainSample = flag.Int("domainsample", 0, "domain entities in the domain graph (0 = default)")
		test         = flag.Int("test", 0, "test entities (0 = default)")
		val          = flag.Int("val", 0, "validation entities (0 = default)")
		seed         = flag.Uint64("seed", 0, "corpus seed (0 = default)")
		cv           = flag.Bool("cv", false, "cross-validate r0 on the validation split first")
		r0star       = flag.Float64("r0star", 0, "set the seed-recall anchor directly (skips -cv; 0 = config default)")
		quick        = flag.Bool("quick", false, "small fast configuration (smoke test)")
		splits       = flag.Int("splits", 1, "random entity splits to average (paper: 10)")
	)
	flag.Parse()
	jsonOut = *jsonFlag

	// The command owns the context root: Ctrl-C cancels the running
	// figure's harvests instead of abandoning them mid-batch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	domains := []corpus.Domain{synth.DomainResearchers, synth.DomainCars}
	switch *domain {
	case "researchers":
		domains = domains[:1]
	case "cars":
		domains = domains[1:]
	case "both":
	default:
		fmt.Fprintf(os.Stderr, "unknown domain %q\n", *domain)
		os.Exit(2)
	}

	for _, d := range domains {
		cfg := eval.DefaultConfig(d)
		if *quick {
			cfg.NumEntities = 60
			cfg.PagesPerEntity = 20
			cfg.DomainSample = 16
			cfg.NumTest = 8
			cfg.NumValidation = 4
		}
		if *entities > 0 {
			cfg.NumEntities = *entities
		}
		if *pages > 0 {
			cfg.PagesPerEntity = *pages
		}
		if *domainSample > 0 {
			cfg.DomainSample = *domainSample
		}
		if *test > 0 {
			cfg.NumTest = *test
		}
		if *val > 0 {
			cfg.NumValidation = *val
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		if *r0star > 0 {
			cfg.Core.R0Star = *r0star
		}
		if err := runDomain(ctx, cfg, *fig, *cv, *splits); err != nil {
			fmt.Fprintf(os.Stderr, "l2qexp: %v\n", err)
			os.Exit(1)
		}
	}
}

func runDomain(ctx context.Context, cfg eval.Config, fig string, cv bool, splits int) error {
	if splits > 1 {
		return runSplits(ctx, cfg, splits)
	}
	return runFigures(ctx, cfg, fig, cv)
}

// runSplits reports mean ± std of the headline methods across repeated
// random entity splits (the paper's 10-split protocol, §VI-A).
func runSplits(ctx context.Context, cfg eval.Config, n int) error {
	fmt.Printf("== %s: %d random splits, headline methods (mean ± std of normalized F@3) ==\n",
		cfg.Domain, n)
	start := time.Now()
	envs, err := eval.NewEnvs(cfg, n)
	if err != nil {
		return err
	}
	for _, m := range []eval.Method{eval.MethodL2QBAL, eval.MethodL2QP, eval.MethodL2QR,
		eval.MethodHR, eval.MethodMQ, eval.MethodLM} {
		st, err := eval.RunMethodOverSplits(ctx, envs, m, 3, -1)
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s F = %.3f ± %.3f   P = %.3f ± %.3f   R = %.3f ± %.3f\n",
			m, st.Mean.F, st.Std.F, st.Mean.P, st.Std.P, st.Mean.R, st.Std.R)
	}
	fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFigures(ctx context.Context, cfg eval.Config, fig string, cv bool) error {
	fmt.Printf("==================================================================\n")
	fmt.Printf("Domain: %s  (%d entities × %d pages, domain graph sample %d, %d test)\n",
		cfg.Domain, cfg.NumEntities, cfg.PagesPerEntity, cfg.DomainSample, cfg.NumTest)
	fmt.Printf("==================================================================\n")
	start := time.Now()
	env, err := eval.NewEnv(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("environment ready in %v (%d pages indexed)\n\n",
		time.Since(start).Round(time.Millisecond), env.G.Corpus.NumPages())

	if cv {
		r0, scores, err := env.CrossValidateR0(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("-- r0* cross-validation (validation split, F of L2QBAL@3) --\n")
		for _, c := range eval.R0Grid {
			fmt.Printf("  r0*=%.2f  F=%.4f\n", c, scores[c])
		}
		fmt.Printf("  chosen r0* = %.2f\n\n", r0)
		env.Cfg.Core.R0Star = r0
	}

	want := func(f string) bool { return fig == "all" || fig == f }

	if want("9") {
		printFig9(env)
	}
	if want("10") {
		if err := printFig10(ctx, env); err != nil {
			return err
		}
	}
	if want("11") {
		if err := printFig11(ctx, env); err != nil {
			return err
		}
	}
	if want("12") {
		if err := printFig12(ctx, env); err != nil {
			return err
		}
	}
	if want("13") {
		if err := printFig13(ctx, env); err != nil {
			return err
		}
	}
	if want("14") {
		if err := printFig14(ctx, env); err != nil {
			return err
		}
	}
	if want("crawl") {
		if err := printCrawl(ctx, env); err != nil {
			return err
		}
	}
	if want("budget") {
		if err := printBudget(ctx, env); err != nil {
			return err
		}
	}
	if fig == "9crf" {
		printFig9CRF(env)
	}
	fmt.Printf("total time: %v\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func printFig9(env *eval.Env) {
	fmt.Printf("-- Fig. 9: entity aspects, paragraph frequency, classifier accuracy --\n")
	fmt.Printf("%-14s %10s %10s\n", "Aspect", "Frequency", "Accuracy")
	rows := env.Fig9()
	for _, r := range rows {
		fmt.Printf("%-14s %10d %10.2f\n", r.Aspect, r.Frequency, r.Accuracy)
	}
	emitJSON("fig9", env.Cfg.Domain, rows)
	fmt.Println()
}

func printFig9CRF(env *eval.Env) {
	fmt.Printf("-- Fig. 9 extension: Naive Bayes vs linear-chain CRF accuracy --\n")
	fmt.Printf("%-14s %10s %10s\n", "Aspect", "NB", "CRF")
	rows := env.Fig9CRF()
	for _, r := range rows {
		fmt.Printf("%-14s %10.3f %10.3f\n", r.Aspect, r.AccuracyNB, r.AccuracyCRF)
	}
	emitJSON("fig9crf", env.Cfg.Domain, rows)
	fmt.Println()
}

func printFig10(ctx context.Context, env *eval.Env) error {
	t0 := time.Now()
	res, err := env.Fig10(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("-- Fig. 10: domain & context awareness (normalized, 3 queries) --\n")
	fmt.Printf("precision: ")
	for _, m := range []eval.Method{eval.MethodRND, eval.MethodP, eval.MethodPQ, eval.MethodPT, eval.MethodL2QP} {
		fmt.Printf("%s=%.3f  ", m, res.Precision[m])
	}
	fmt.Printf("\nrecall:    ")
	for _, m := range []eval.Method{eval.MethodRND, eval.MethodR, eval.MethodRQ, eval.MethodRT, eval.MethodL2QR} {
		fmt.Printf("%s=%.3f  ", m, res.Recall[m])
	}
	fmt.Printf("\n(%v)\n\n", time.Since(t0).Round(time.Millisecond))
	emitJSON("fig10", env.Cfg.Domain, res)
	return nil
}

func printFig11(ctx context.Context, env *eval.Env) error {
	t0 := time.Now()
	res, err := env.Fig11(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("-- Fig. 11: effect of domain size (normalized, 3 queries) --\n")
	fmt.Printf("%-18s", "domain used")
	for _, f := range res.Fractions {
		fmt.Printf("%8.0f%%", f*100)
	}
	fmt.Printf("\n%-18s", "precision (L2QP)")
	for _, v := range res.PrecL2QP {
		fmt.Printf("%9.3f", v)
	}
	fmt.Printf("\n%-18s", "recall (L2QR)")
	for _, v := range res.RecL2QR {
		fmt.Printf("%9.3f", v)
	}
	fmt.Printf("\n(%v)\n\n", time.Since(t0).Round(time.Millisecond))
	emitJSON("fig11", env.Cfg.Domain, res)
	return nil
}

func printSeries(res eval.CompareResult, metric func(eval.PRF) float64, name string) {
	fmt.Printf("%-8s", name+"\\#q")
	for k := 2; k <= len(res.Series[0].ByQueries); k++ {
		fmt.Printf("%8d", k)
	}
	fmt.Println()
	ordered := make([]eval.Series, len(res.Series))
	copy(ordered, res.Series)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Method < ordered[j].Method })
	for _, s := range ordered {
		fmt.Printf("%-8s", s.Method)
		for k := 2; k <= len(s.ByQueries); k++ {
			fmt.Printf("%8.3f", metric(s.ByQueries[k-1]))
		}
		fmt.Println()
	}
}

func printFig12(ctx context.Context, env *eval.Env) error {
	t0 := time.Now()
	res, err := env.Fig12(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("-- Fig. 12a: precision vs number of queries (normalized) --\n")
	printSeries(res, func(p eval.PRF) float64 { return p.P }, "prec")
	fmt.Printf("-- Fig. 12b: recall vs number of queries (normalized) --\n")
	printSeries(res, func(p eval.PRF) float64 { return p.R }, "rec")
	fmt.Printf("(%v)\n\n", time.Since(t0).Round(time.Millisecond))
	emitJSON("fig12", env.Cfg.Domain, res)
	return nil
}

func printFig13(ctx context.Context, env *eval.Env) error {
	t0 := time.Now()
	res, err := env.Fig13(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("-- Fig. 13: F-score vs number of queries (normalized) --\n")
	printSeries(res, func(p eval.PRF) float64 { return p.F }, "F")
	sigs, err := res.SignificanceVsFirst()
	if err != nil {
		return err
	}
	fmt.Printf("significance at %d queries (paired over entity×aspect):\n", len(res.Series[0].ByQueries))
	for _, s := range sigs {
		fmt.Printf("  %s\n", s)
	}
	fmt.Printf("(%v)\n\n", time.Since(t0).Round(time.Millisecond))
	emitJSON("fig13", env.Cfg.Domain, res)
	return nil
}

func printCrawl(ctx context.Context, env *eval.Env) error {
	t0 := time.Now()
	res, err := env.CompareCrawler(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("-- Extension: query harvesting vs link-based focused crawler --\n")
	fmt.Printf("equal download budget, normalized F over %d entity×aspect pairs:\n", res.Entities)
	fmt.Printf("  %-22s %.3f\n", "L2QBAL (queries)", res.L2QF)
	fmt.Printf("  %-22s %.3f\n", "focused crawler (links)", res.CrawlerF)
	fmt.Printf("  %s\n", res.Sig)
	fmt.Printf("(%v)\n\n", time.Since(t0).Round(time.Millisecond))
	emitJSON("crawl", env.Cfg.Domain, res)
	return nil
}

func printFig14(ctx context.Context, env *eval.Env) error {
	res, err := env.Fig14(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("-- Fig. 14: time cost per query (seconds) --\n")
	fmt.Printf("%-10s %12s\n", "Method", "Selection")
	for _, m := range []eval.Method{eval.MethodL2QP, eval.MethodL2QR, eval.MethodL2QBAL} {
		fmt.Printf("%-10s %12.4f\n", m, res.SelectionSec[m])
	}
	fmt.Printf("%-10s %12.1f (simulated remote download, %s)\n\n", "Fetch", res.FetchSecPerQuery, res.Domain)
	emitJSON("fig14", env.Cfg.Domain, res)
	return nil
}

// printBudget runs the fixed-vs-adaptive budget-allocation comparison
// (the scheduler's BudgetPolicy) at the same global query spend.
func printBudget(ctx context.Context, env *eval.Env) error {
	t0 := time.Now()
	res, err := env.BudgetComparison(ctx, env.Cfg.NumQueries)
	if err != nil {
		return err
	}
	fmt.Printf("-- Extension: fixed-equal vs adaptive cross-entity query budgets --\n")
	fmt.Printf("same global budget per aspect (%d queries x %d entities); \u03a3R_E(\u03a6) is the\n", res.NQueries, env.Cfg.NumTest)
	fmt.Printf("summed collective recall, rel the gathered relevant pages:\n")
	fmt.Printf("%-14s %8s | %8s %8s %6s | %8s %8s %6s\n",
		"Aspect", "budget", "fix \u03a3R", "fired", "rel", "ada \u03a3R", "fired", "rel")
	for _, r := range res.Rows {
		fmt.Printf("%-14s %8d | %8.3f %8d %6d | %8.3f %8d %6d\n",
			r.Aspect, r.Budget,
			r.FixedSumRPhi, r.FixedQueries, r.FixedRelPages,
			r.AdaptiveSumRPhi, r.AdaptiveQueries, r.AdaptiveRelPages)
	}
	fmt.Printf("(%v)\n\n", time.Since(t0).Round(time.Millisecond))
	emitJSON("budget", env.Cfg.Domain, res)
	return nil
}
