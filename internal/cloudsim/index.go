package cloudsim

import (
	"slices"
	"sort"
	"strings"
)

// indexBlock bounds a block of the name index: an insert or delete moves at
// most one block's names, however many objects the provider stores.
const indexBlock = 256

// nameIndex is the sorted set of a backend's stored object names, split into
// sorted blocks of at most indexBlock names. A prefix listing is a binary
// search for its first name and a walk over the k names it returns, so its
// cost does not grow with the rest of the namespace, and no listing sorts.
type nameIndex struct {
	blocks [][]string // non-empty, each sorted, in order
}

// locate returns the block that holds name or would receive it, and name's
// position in it.
func (x *nameIndex) locate(name string) (bi, i int) {
	bi = sort.Search(len(x.blocks), func(j int) bool {
		b := x.blocks[j]
		return b[len(b)-1] >= name
	})
	if bi == len(x.blocks) {
		bi-- // past every name: the last block receives it
	}
	return bi, sort.SearchStrings(x.blocks[bi], name)
}

func (x *nameIndex) insert(name string) {
	if len(x.blocks) == 0 {
		x.blocks = [][]string{{name}}
		return
	}
	bi, i := x.locate(name)
	b := slices.Insert(x.blocks[bi], i, name)
	if len(b) <= indexBlock {
		x.blocks[bi] = b
		return
	}
	half := len(b) / 2
	x.blocks[bi] = b[:half:half]
	x.blocks = slices.Insert(x.blocks, bi+1, slices.Clone(b[half:]))
}

func (x *nameIndex) remove(name string) {
	if len(x.blocks) == 0 {
		return
	}
	bi, i := x.locate(name)
	b := x.blocks[bi]
	if i == len(b) || b[i] != name {
		return
	}
	if b = slices.Delete(b, i, i+1); len(b) > 0 {
		x.blocks[bi] = b
		return
	}
	x.blocks = slices.Delete(x.blocks, bi, bi+1)
}

// under returns, in order, every name that starts with prefix.
func (x *nameIndex) under(prefix string) []string {
	if len(x.blocks) == 0 {
		return nil
	}
	var out []string
	bi, i := x.locate(prefix)
	for ; bi < len(x.blocks); bi, i = bi+1, 0 {
		b := x.blocks[bi]
		for ; i < len(b); i++ {
			if !strings.HasPrefix(b[i], prefix) {
				return out
			}
			out = append(out, b[i])
		}
	}
	return out
}
