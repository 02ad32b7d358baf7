package nn

import (
	"fmt"
	"math"

	"fp8quant/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product attention with
// learned Q/K/V/output projections. The two activation×activation
// matrix multiplies (QKᵀ and PV) are explicit BatchMatMulOp leaves so
// the extended quantization scheme can cover them (the "BMM" rows of
// Figure 9).
type MultiHeadAttention struct {
	Dim, Heads int
	WQ, WK, WV *Linear
	WO         *Linear
	// QK and PV are the two batched matmuls inside attention.
	QK, PV BatchMatMulOp
	// Causal masks future positions (decoder-only LMs).
	Causal bool
	// Window > 0 restricts attention to a sliding local window
	// (Longformer-style).
	Window int
}

// NewMultiHeadAttention allocates an attention block with zero weights.
func NewMultiHeadAttention(dim, heads int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads,
		WQ: NewLinear(dim, dim), WK: NewLinear(dim, dim),
		WV: NewLinear(dim, dim), WO: NewLinear(dim, dim),
		QK: BatchMatMulOp{TransposeB: true},
	}
}

// Kind implements Module.
func (a *MultiHeadAttention) Kind() string { return "MultiHeadAttention" }

// Visit implements Container.
func (a *MultiHeadAttention) Visit(path string, v Visitor) {
	walk(path+"/wq", a.WQ, v)
	walk(path+"/wk", a.WK, v)
	walk(path+"/wv", a.WV, v)
	walk(path+"/wo", a.WO, v)
	walk(path+"/qk", &a.QK, v)
	walk(path+"/pv", &a.PV, v)
}

// Forward runs self-attention over x [B,T,D].
func (a *MultiHeadAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	return a.ForwardArena(nil, x)
}

// ForwardArena implements ArenaForwarder.
func (a *MultiHeadAttention) ForwardArena(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return a.attend(ar, x, x)
}

// attend is the one attention body: queries from x [B,Tq,D], keys and
// values from kv [B,Tk,D]. Self-attention (kv == x) applies the
// causal/sliding-window mask; cross-attention never masks.
func (a *MultiHeadAttention) attend(ar *tensor.Arena, x, kv *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[2] != a.Dim {
		panic(fmt.Sprintf("nn: attention expects [B,T,%d], got %v", a.Dim, x.Shape))
	}
	hd := a.Dim / a.Heads

	q := splitHeads(ar, a.WQ.ForwardArena(ar, x), a.Heads) // [B,H,Tq,hd]
	k := splitHeads(ar, a.WK.ForwardArena(ar, kv), a.Heads)
	v := splitHeads(ar, a.WV.ForwardArena(ar, kv), a.Heads)

	scores := a.QK.ApplyArena(ar, q, k) // [B,H,Tq,Tk]
	scale := float32(1 / math.Sqrt(float64(hd)))
	for i := range scores.Data {
		scores.Data[i] *= scale
	}
	if kv == x {
		a.mask(scores, x.Shape[0], x.Shape[1])
	}

	probs := ar.New(scores.Shape...)
	SoftmaxInto(probs.Data, scores.Data, kv.Shape[1])

	ctx := a.PV.ApplyArena(ar, probs, v) // [B,H,Tq,hd]
	return a.WO.ForwardArena(ar, mergeHeads(ar, ctx))
}

// mask applies causal and/or sliding-window masking in place.
func (a *MultiHeadAttention) mask(scores *tensor.Tensor, b, t int) {
	if !a.Causal && a.Window <= 0 {
		return
	}
	const negInf = float32(-1e30)
	heads := a.Heads
	for bi := 0; bi < b*heads; bi++ {
		m := scores.Data[bi*t*t : (bi+1)*t*t]
		for i := 0; i < t; i++ {
			for j := 0; j < t; j++ {
				if a.Causal && j > i {
					m[i*t+j] = negInf
				}
				if a.Window > 0 && abs(i-j) > a.Window {
					m[i*t+j] = negInf
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// splitHeads reshapes [B,T,D] to [B,H,T,D/H].
func splitHeads(a *tensor.Arena, x *tensor.Tensor, heads int) *tensor.Tensor {
	b, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	hd := d / heads
	y := a.New(b, heads, t, hd)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			for h := 0; h < heads; h++ {
				src := x.Data[(bi*t+ti)*d+h*hd : (bi*t+ti)*d+(h+1)*hd]
				dst := y.Data[((bi*heads+h)*t+ti)*hd:]
				copy(dst[:hd], src)
			}
		}
	}
	return y
}

// mergeHeads reshapes [B,H,T,hd] back to [B,T,D].
func mergeHeads(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	b, heads, t, hd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	d := heads * hd
	y := a.New(b, t, d)
	for bi := 0; bi < b; bi++ {
		for h := 0; h < heads; h++ {
			for ti := 0; ti < t; ti++ {
				src := x.Data[((bi*heads+h)*t+ti)*hd : ((bi*heads+h)*t+ti+1)*hd]
				dst := y.Data[(bi*t+ti)*d+h*hd:]
				copy(dst[:hd], src)
			}
		}
	}
	return y
}

// CrossAttention attends queries from x over keys/values from a memory
// tensor (encoder-decoder models: Marian, Pegasus).
type CrossAttention struct {
	*MultiHeadAttention
}

// NewCrossAttention allocates a cross-attention block.
func NewCrossAttention(dim, heads int) *CrossAttention {
	return &CrossAttention{NewMultiHeadAttention(dim, heads)}
}

// Kind implements Module.
func (c *CrossAttention) Kind() string { return "CrossAttention" }

// Attend runs attention with queries from x [B,Tq,D] and keys/values
// from mem [B,Tk,D], through the self-attention body; Attend(x, x)
// equals Forward(x).
func (c *CrossAttention) Attend(x, mem *tensor.Tensor) *tensor.Tensor {
	return c.attend(nil, x, mem)
}
