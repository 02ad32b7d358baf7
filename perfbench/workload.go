package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fp8quant/internal/harness"
	"fp8quant/internal/models"
)

// sweepExp is the registered experiment whose grid every workload runs
// on: the shared Table-2 sweep (grid table2-sweep, all six recipes).
const sweepExp = "table2"

// minTraceCells is the smallest traced selection that supports a
// per-cell p75: nearest-rank p75 of 40 cells leaves 10 cells beyond it.
const minTraceCells = 40

// part is one pool a selection draws from, with the estimated cost the
// draw aims at and the band its most memory-hungry model must lie in.
type part struct {
	pool       func() []string
	minModels  int
	maxModels  int
	target     float64 // estimated CPU seconds (zooCosts units)
	tolerance  float64 // accepted relative distance from target
	memLo      float64 // the largest model's peak RSS must lie in [memLo, memHi] MB
	memHi      float64 // (0 = no band)
	traceScale float64 // target multiplier for the traced selection (0 = same as untraced)
	traceMin   int     // minimum models in the traced selection (0 = minModels)
}

// workload is one benchmark input family.
type workload struct {
	name string
	why  string
	// coordinated runs the sweep through an in-process coordinator and
	// two fp8bench -worker processes instead of a local in-process pool.
	coordinated bool
	parts       []part
}

// Each sweep draws a fixed number of models per part: a model in a
// multi-model sweep costs more than alone (the retained heap grows with
// every model swept), so a varying count would vary the work.
var workloads = []workload{
	{
		name: "sweep-cnn",
		why:  "BN CNN pool: models.Build with BN warm-up, conv forwards and BN-aware calibration dominate each cell",
		parts: []part{{
			pool: bnCNNPool, minModels: 3, maxModels: 3, target: 20, tolerance: 0.04,
			memLo: 19, memHi: 24.5, traceScale: 64.0 / 20, traceMin: 7,
		}},
	},
	{
		name: "sweep-nlp",
		why:  "NLP+Audio pool: cheap builds, cells dominated by unplanned token-path FP32 and quantized forwards",
		parts: []part{{
			pool: nlpAudioPool, minModels: 9, maxModels: 9, target: 9, tolerance: 0.04,
		}},
	},
	{
		name:        "coord-mixed",
		why:         "table3-like mix over the coordinator and two worker processes: LPT tail, per-process caches, HTTP push",
		coordinated: true,
		parts: []part{
			{pool: bnCNNPool, minModels: 2, maxModels: 2, target: 12.5, tolerance: 0.05, memLo: 17, memHi: 24.5},
			{pool: otherPool, minModels: 8, maxModels: 8, target: 6.5, tolerance: 0.05},
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// bnCNNPool is every zoo model in the CV domain with BatchNorm.
func bnCNNPool() []string {
	return poolWhere(func(i models.Info) bool { return i.Domain == models.CV && i.HasBN })
}

// nlpAudioPool is every NLP and Audio zoo model.
func nlpAudioPool() []string {
	return poolWhere(func(i models.Info) bool { return i.Domain == models.NLP || i.Domain == models.Audio })
}

// otherPool is the Table-2 pool minus the BN CNNs.
func otherPool() []string {
	return poolWhere(func(i models.Info) bool { return !(i.Domain == models.CV && i.HasBN) })
}

func poolWhere(keep func(models.Info) bool) []string {
	var out []string
	for _, n := range models.Names() {
		if info, ok := models.InfoFor(n); ok && keep(info) {
			out = append(out, n)
		}
	}
	return out
}

// selection returns the models one sweep of the workload runs for the
// given seed and repetition, sorted by name. The traced selection is
// drawn the same way with the part's trace target, so it holds at
// least minTraceCells cells.
func (w workload) selection(seed uint64, rep int, traced bool) []string {
	rng := newSplitMix(seed*0x9E3779B97F4A7C15 + uint64(rep+1)*0xBF58476D1CE4E5B9 + hashString(w.name))
	var out []string
	for _, p := range w.parts {
		target, minN := p.target, p.minModels
		if traced && p.traceScale > 0 {
			target *= p.traceScale
		}
		if traced && p.traceMin > 0 {
			minN = p.traceMin
		}
		maxN := p.maxModels
		if maxN < minN {
			maxN = minN + 1
		}
		out = append(out, p.draw(rng, minN, maxN, target)...)
	}
	sort.Strings(out)
	return out
}

// draw picks a model subset whose estimated cost lies within the
// part's tolerance of target, whose size lies in [minN, maxN] and whose
// most memory-hungry model lies in the part's band. Models are taken
// greedily in a seeded shuffled order, skipping any that would
// overshoot. Balancing keeps a sweep's work and peak memory nearly the
// same for every seed, so seeds vary which models run without varying
// how much a run measures. Deterministic: the draw depends on the RNG
// state only.
func (p part) draw(rng *splitMix, minN, maxN int, target float64) []string {
	lo, hi := target*(1-p.tolerance), target*(1+p.tolerance)
	pool := p.pool()
	var best []string
	bestDist := math.Inf(1)
	order := make([]string, len(pool))
	for try := 0; try < 20000; try++ {
		copy(order, pool)
		rng.shuffle(order)
		var pick []string
		total, mem := 0.0, 0.0
		for _, m := range order {
			if len(pick) == maxN || (total >= lo && len(pick) >= minN) {
				break
			}
			c := zooCosts[m]
			if total+c.cpu > hi || (p.memHi > 0 && c.rss > p.memHi) {
				continue
			}
			pick = append(pick, m)
			total += c.cpu
			mem = math.Max(mem, c.rss)
		}
		if len(pick) < minN || mem < p.memLo {
			continue
		}
		if total >= lo {
			return pick
		}
		if d := target - total; d < bestDist {
			best, bestDist = append([]string(nil), pick...), d
		}
	}
	return best
}

// filterFor renders a selection as the -filter the program receives.
func filterFor(sel []string) harness.Filter {
	return harness.Filter{"model": append([]string(nil), sel...)}
}

// splitMix is a tiny deterministic PRNG (SplitMix64), so selections
// never depend on a standard-library generator's version.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitMix) shuffle(s []string) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// zooCosts holds, per zoo model, the median CPU seconds and peak RSS of
// a cold two-worker sweep of its six Table-2 cells (three runs of
// fp8bench -exp table2 -filter model=<name> -workers 2 on a 2-vCPU amd64
// VM, avx2 kernels). They only balance draws: a later change that makes
// models cheaper leaves the selections, and so the comparisons,
// unchanged.
var zooCosts = map[string]modelCost{
	"albert_sst2":           {0.58, 17.8},
	"bart_xsum":             {1.87, 14.3},
	"bert_base_cola":        {0.77, 14.3},
	"bert_base_mrpc":        {0.76, 14.3},
	"bert_base_sst2":        {0.75, 14.3},
	"bert_base_stsb":        {0.79, 14.3},
	"bert_large_cola":       {1.41, 14.3},
	"bert_large_rte":        {1.44, 16.1},
	"bloom_176b":            {2.02, 16.0},
	"bloom_560m":            {0.72, 14.3},
	"bloom_7b1":             {1.61, 14.4},
	"camembert_xnli":        {0.73, 14.3},
	"cifar_resnet20":        {7.94, 18.4},
	"convnext_tiny":         {20.37, 23.5},
	"deberta_mnli":          {1.02, 14.3},
	"deit_tiny":             {0.60, 15.2},
	"densenet121":           {10.54, 22.5},
	"densenet169":           {16.28, 27.7},
	"dialogpt_reddit":       {0.86, 14.3},
	"distilbert_mrpc":       {0.44, 14.3},
	"distilbert_sst2":       {0.41, 14.3},
	"dlrm_criteo":           {0.03, 14.3},
	"efficientnet_b0":       {9.31, 30.2},
	"efficientnet_b4":       {14.88, 36.5},
	"electra_sst2":          {0.56, 14.3},
	"ernie_sst2":            {0.77, 14.3},
	"fcn_resnet50":          {5.69, 21.0},
	"flaubert_cls":          {0.77, 14.3},
	"funnel_mrpc":           {0.66, 14.3},
	"ghostnet":              {13.30, 45.5},
	"googlenet":             {1.29, 14.3},
	"gpt2_wikitext":         {0.72, 14.3},
	"gpt_neo_lambada":       {0.82, 14.3},
	"hubert_librispeech":    {0.65, 16.4},
	"inception_v3":          {2.96, 16.2},
	"llama_13b":             {1.81, 16.0},
	"llama_65b":             {2.14, 16.2},
	"llama_7b":              {1.66, 14.6},
	"longformer_mrpc":       {0.69, 14.3},
	"marianmt_enro":         {1.89, 14.3},
	"mbart_enro":            {2.22, 14.7},
	"minilm_sst2":           {0.55, 14.3},
	"mnasnet":               {12.53, 41.2},
	"mobilebert_sst2":       {0.67, 14.3},
	"mobilenet_v2":          {14.78, 41.4},
	"mobilenet_v3":          {14.54, 44.6},
	"opt_lambada":           {0.88, 14.3},
	"pegasus_samsum":        {2.64, 16.8},
	"peleenet":              {6.02, 18.6},
	"prophetnet_gigaword":   {2.22, 15.6},
	"regnet_y":              {8.57, 15.5},
	"resnest50":             {17.97, 15.4},
	"resnet18":              {11.85, 19.1},
	"resnet34":              {17.52, 17.1},
	"resnet50":              {23.41, 19.6},
	"resnext101":            {20.26, 21.0},
	"roberta_mrpc":          {0.77, 14.3},
	"se_resnext50":          {13.64, 16.0},
	"shufflenet_v2":         {3.30, 14.7},
	"squeezenet":            {1.64, 14.3},
	"stable_diffusion_unet": {2.92, 19.1},
	"swin_tiny":             {0.67, 16.8},
	"t5_small_cnndm":        {1.90, 15.1},
	"tinybert_mrpc":         {0.40, 14.3},
	"unet_carvana":          {6.12, 20.0},
	"vgg11":                 {0.70, 14.3},
	"vgg13":                 {1.92, 14.3},
	"vgg16":                 {2.44, 14.3},
	"vit_base":              {1.27, 24.0},
	"vit_small":             {0.63, 17.5},
	"wav2vec2_librispeech":  {0.79, 14.9},
	"wide_resnet50":         {27.34, 23.8},
	"xlm_roberta_mrpc":      {0.91, 14.3},
	"xlnet_sst2":            {0.76, 14.3},
	"yolov3":                {1.29, 14.3},
}

// modelCost is one zooCosts entry.
type modelCost struct {
	cpu float64 // CPU seconds
	rss float64 // peak RSS, MB
}
