package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
)

// Network is a feed-forward stack of layers.
type Network struct {
	In     Shape
	Out    Shape
	Layers []Layer
}

// NewNetwork wires the layers for the given input shape, validates shape
// compatibility and initializes weights from rng.
func NewNetwork(in Shape, rng *rand.Rand, layers ...Layer) (*Network, error) {
	if in.Size() <= 0 {
		return nil, fmt.Errorf("nn: invalid input shape %s", in)
	}
	if len(layers) == 0 {
		return nil, errors.New("nn: network needs at least one layer")
	}
	shape := in
	for i, l := range layers {
		var err error
		shape, err = l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.name(), err)
		}
	}
	n := &Network{In: in, Out: shape, Layers: layers}
	if rng != nil {
		n.initWeights(rng)
	}
	return n, nil
}

func (n *Network) initWeights(rng *rand.Rand) {
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			t.initWeights(rng)
		case *Dense:
			t.initWeights(rng)
		}
	}
}

// Forward runs inference and returns the network output.
func (n *Network) Forward(in []float64) ([]float64, error) {
	if len(in) != n.In.Size() {
		return nil, fmt.Errorf("nn: input size %d, want %d", len(in), n.In.Size())
	}
	x := in
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x, nil
}

// Backward back-propagates ∂L/∂out through the stack (Forward must have
// been called first on this instance).
func (n *Network) Backward(gradOut []float64) {
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
}

// Params returns every learnable parameter.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all gradient accumulators.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// Clone returns a network sharing parameter values but with private
// forward caches and gradient buffers, so the float64 reference Forward
// can run on the clone and the original concurrently.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.clone()
	}
	// Re-walk shapes so cloned layers cache their in/out dimensions.
	shape := n.In
	for _, l := range layers {
		shape, _ = l.OutShape(shape)
	}
	return &Network{In: n.In, Out: n.Out, Layers: layers}
}

// MSE returns the mean squared error and fills grad with ∂L/∂pred
// (grad may be nil to skip).
func MSE(pred, target, grad []float64) (float64, error) {
	if len(pred) != len(target) {
		return 0, fmt.Errorf("nn: MSE length mismatch %d vs %d", len(pred), len(target))
	}
	var sum float64
	inv := 2 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		sum += d * d
		if grad != nil {
			grad[i] = inv * d
		}
	}
	return sum / float64(len(pred)), nil
}

// ---------- Serialization ----------

const modelMagic = 0x56564431 // "VVD1"

// Save writes the architecture and weights in a compact binary format.
func (n *Network) Save(w io.Writer) error {
	writeU32 := func(v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := writeU32(modelMagic); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(n.In.H), uint32(n.In.W), uint32(n.In.C), uint32(len(n.Layers))} {
		if err := writeU32(v); err != nil {
			return err
		}
	}
	for _, l := range n.Layers {
		name := l.name()
		if err := writeU32(uint32(len(name))); err != nil {
			return err
		}
		if _, err := w.Write([]byte(name)); err != nil {
			return err
		}
		var meta [3]uint32
		switch t := l.(type) {
		case *Conv2D:
			meta = [3]uint32{uint32(t.KH), uint32(t.KW), uint32(t.Filters)}
		case *Dense:
			meta = [3]uint32{uint32(t.Units), 0, 0}
		}
		for _, v := range meta {
			if err := writeU32(v); err != nil {
				return err
			}
		}
		for _, p := range l.Params() {
			if err := writeU32(uint32(len(p.W))); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, p.W); err != nil {
				return err
			}
		}
	}
	return nil
}

// Limits enforced by Load. Generous multiples of the paper architecture
// (input 50×90×1, ~400k parameters), tight enough that a forged header
// cannot demand absurd allocations before the input runs out.
const (
	maxLoadLayers = 1024
	maxLoadDim    = 1 << 16       // any single H/W/C dimension or layer meta value
	maxLoadTensor = 1 << 26       // elements in any activation tensor
	maxLoadParam  = 100_000_000   // elements in one parameter tensor
	loadChunk     = 8 * (1 << 13) // bytes of weight data decoded per read
)

// loadLayerSpec mirrors each layer's OutShape rule without constructing
// the layer: it validates the serialized metadata against the incoming
// shape and reports the output shape plus the exact parameter sizes the
// layer will own. Everything is checked here, before any weight-sized
// allocation — a crafted header fails cleanly instead of panicking in a
// constructor or reserving gigabytes.
func loadLayerSpec(name string, meta [3]uint32, in Shape) (out Shape, paramElems []int, err error) {
	metaOK := func(v uint32) bool { return v >= 1 && v <= maxLoadDim }
	switch name {
	case "conv2d":
		kh, kw, filters := meta[0], meta[1], meta[2]
		if !metaOK(kh) || !metaOK(kw) || !metaOK(filters) {
			return Shape{}, nil, fmt.Errorf("nn: implausible conv meta %dx%dx%d", kh, kw, filters)
		}
		if in.H < int(kh) || in.W < int(kw) {
			return Shape{}, nil, fmt.Errorf("nn: conv kernel %dx%d larger than input %s", kh, kw, in)
		}
		w := int64(kh) * int64(kw) * int64(in.C)
		if w > maxLoadParam || w*int64(filters) > maxLoadParam {
			return Shape{}, nil, errors.New("nn: implausible conv parameter size")
		}
		out = Shape{H: in.H - int(kh) + 1, W: in.W - int(kw) + 1, C: int(filters)}
		return out, []int{int(w) * int(filters), int(filters)}, nil
	case "dense":
		units := meta[0]
		if !metaOK(units) {
			return Shape{}, nil, fmt.Errorf("nn: implausible dense units %d", units)
		}
		if in.H != 1 || in.W != 1 {
			return Shape{}, nil, errors.New("nn: Dense requires flattened input (use Flatten)")
		}
		if int64(in.C)*int64(units) > maxLoadParam {
			return Shape{}, nil, errors.New("nn: implausible dense parameter size")
		}
		return Shape{H: 1, W: 1, C: int(units)}, []int{in.C * int(units), int(units)}, nil
	case "relu":
		return in, nil, nil
	case "avgpool", "maxpool":
		if in.H < 2 || in.W < 2 {
			return Shape{}, nil, fmt.Errorf("nn: pool input %s too small", in)
		}
		return Shape{H: in.H / 2, W: in.W / 2, C: in.C}, nil, nil
	case "flatten":
		return Shape{H: 1, W: 1, C: in.Size()}, nil, nil
	default:
		return Shape{}, nil, fmt.Errorf("nn: unknown layer %q", name)
	}
}

// Load reconstructs a network saved with Save.
//
// The input is untrusted: every count is validated against the shape walk
// before it drives an allocation, and weight data is read in bounded
// chunks so memory use stays proportional to the bytes actually present —
// a tiny file claiming a huge parameter tensor fails after one chunk, it
// does not reserve the claimed size up front.
func Load(r io.Reader) (*Network, error) {
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, err
	}
	if magic != modelMagic {
		return nil, errors.New("nn: bad model magic")
	}
	var dims [4]uint32
	for i := range dims {
		if dims[i], err = readU32(); err != nil {
			return nil, err
		}
	}
	for _, d := range dims[:3] {
		if d < 1 || d > maxLoadDim {
			return nil, fmt.Errorf("nn: implausible input dimension %d", d)
		}
	}
	in := Shape{H: int(dims[0]), W: int(dims[1]), C: int(dims[2])}
	if int64(in.H)*int64(in.W)*int64(in.C) > maxLoadTensor {
		return nil, fmt.Errorf("nn: implausible input shape %s", in)
	}
	nLayers := int(dims[3])
	if nLayers <= 0 || nLayers > maxLoadLayers {
		return nil, fmt.Errorf("nn: implausible layer count %d", nLayers)
	}

	type spec struct {
		name   string
		meta   [3]uint32
		wDatas [][]float64
	}
	specs := make([]spec, 0, nLayers)
	chunk := make([]byte, loadChunk)
	readParam := func(want int) ([]float64, error) {
		sz, err := readU32()
		if err != nil {
			return nil, err
		}
		if int64(sz) != int64(want) {
			return nil, fmt.Errorf("nn: parameter size %d, want %d", sz, want)
		}
		// Chunked read: the slice grows only as far as the input actually
		// delivers, so allocation is bounded by the bytes present.
		data := make([]float64, 0, min(want, loadChunk/8))
		for len(data) < want {
			n := min(want-len(data), loadChunk/8)
			b := chunk[:8*n]
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
			}
		}
		return data, nil
	}

	shape := in
	for i := 0; i < nLayers; i++ {
		nameLen, err := readU32()
		if err != nil {
			return nil, err
		}
		if nameLen > 64 {
			return nil, errors.New("nn: implausible layer name length")
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return nil, err
		}
		var meta [3]uint32
		for j := range meta {
			if meta[j], err = readU32(); err != nil {
				return nil, err
			}
		}
		out, paramElems, err := loadLayerSpec(string(nameBuf), meta, shape)
		if err != nil {
			return nil, err
		}
		if int64(out.H)*int64(out.W)*int64(out.C) > maxLoadTensor {
			return nil, fmt.Errorf("nn: implausible layer %d output shape %s", i, out)
		}
		s := spec{name: string(nameBuf), meta: meta}
		for _, want := range paramElems {
			data, err := readParam(want)
			if err != nil {
				return nil, err
			}
			s.wDatas = append(s.wDatas, data)
		}
		specs = append(specs, s)
		shape = out
	}

	// All counts validated and all weight data present: now construct the
	// layers (metadata is known-positive, so the constructors cannot panic)
	// and let NewNetwork re-walk the shapes as the final consistency check.
	layers := make([]Layer, len(specs))
	for i, s := range specs {
		switch s.name {
		case "conv2d":
			layers[i] = NewConv2D(int(s.meta[0]), int(s.meta[1]), int(s.meta[2]))
		case "dense":
			layers[i] = NewDense(int(s.meta[0]))
		case "relu":
			layers[i] = NewReLU()
		case "avgpool":
			layers[i] = NewPool2D(AvgPool)
		case "maxpool":
			layers[i] = NewPool2D(MaxPool)
		case "flatten":
			layers[i] = NewFlatten()
		}
	}
	net, err := NewNetwork(in, nil, layers...)
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		params := layers[i].Params()
		if len(params) != len(s.wDatas) {
			return nil, errors.New("nn: parameter count mismatch on load")
		}
		for j, data := range s.wDatas {
			if len(params[j].W) != len(data) {
				return nil, errors.New("nn: parameter size mismatch on load")
			}
			copy(params[j].W, data)
		}
	}
	return net, nil
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// L2Norm returns the Euclidean norm over all weights (diagnostics).
func (n *Network) L2Norm() float64 {
	var s float64
	for _, p := range n.Params() {
		for _, v := range p.W {
			s += v * v
		}
	}
	return math.Sqrt(s)
}
