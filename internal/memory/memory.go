// Package memory implements the paged process memory of DEMOS/MP.
//
// A process's program — code, data, and stack (Figure 2-2) — lives in an
// Image: a flat, page-granular address space whose pages may be resident or
// swapped out to a per-machine Store. The kernel's move-data facility reads
// and writes Images; per the paper, "the kernel move data operation handles
// reading or writing of swapped out memory and allocation of new virtual
// memory" (§3.1 step 5), so ReadAt/WriteAt transparently swap pages back in.
package memory

import (
	"fmt"
)

// PageSize is the page granularity in bytes.
const PageSize = 256

// Store is a per-machine swap backing store.
type Store struct {
	slots    map[int][]byte
	nextSlot int
	used     int // bytes
	capacity int // bytes; 0 = unlimited

	swapIns, swapOuts uint64
}

// NewStore creates a swap store bounded at capacity bytes (0 = unlimited).
func NewStore(capacity int) *Store {
	return &Store{slots: make(map[int][]byte), capacity: capacity}
}

// Used returns the bytes currently held in swap.
func (s *Store) Used() int { return s.used }

// ErrSwapFull is returned when the store cannot hold another page.
var ErrSwapFull = fmt.Errorf("memory: swap store full")

func (s *Store) put(page []byte) (int, error) {
	if s.capacity > 0 && s.used+len(page) > s.capacity {
		return 0, ErrSwapFull
	}
	slot := s.nextSlot
	s.nextSlot++
	s.slots[slot] = page
	s.used += len(page)
	s.swapOuts++
	return slot, nil
}

func (s *Store) take(slot int) ([]byte, error) {
	page, ok := s.slots[slot]
	if !ok {
		return nil, fmt.Errorf("memory: no swap slot %d", slot)
	}
	delete(s.slots, slot)
	s.used -= len(page)
	s.swapIns++
	return page, nil
}

// Image is one process's memory: code, data, and stack in a single flat
// space. Pages are allocated lazily (an untouched page reads as zeros) and
// can be swapped out to a Store.
type Image struct {
	size  int
	pages [][]byte // nil = zero-fill or swapped
	slot  []int    // swap slot per page; -1 = not swapped
	store *Store
}

// NewImage allocates an image of size bytes backed (optionally) by store.
func NewImage(size int, store *Store) *Image {
	n := (size + PageSize - 1) / PageSize
	img := &Image{size: size, pages: make([][]byte, n), slot: make([]int, n), store: store}
	for i := range img.slot {
		img.slot[i] = -1
	}
	return img
}

// Size returns the image size in bytes.
func (img *Image) Size() int { return img.size }

// Pages returns the number of pages in the image.
func (img *Image) Pages() int { return len(img.pages) }

// ResidentPages counts pages currently held in real memory.
func (img *Image) ResidentPages() int {
	n := 0
	for i := range img.pages {
		if img.pages[i] != nil {
			n++
		}
	}
	return n
}

// SwappedPages counts pages currently in the swap store.
func (img *Image) SwappedPages() int {
	n := 0
	for i := range img.slot {
		if img.slot[i] >= 0 {
			n++
		}
	}
	return n
}

func (img *Image) check(off, n int) error {
	if off < 0 || n < 0 || off+n > img.size {
		return fmt.Errorf("memory: access [%d,%d) outside image of %d bytes", off, off+n, img.size)
	}
	return nil
}

// page returns page i resident, swapping it in if needed.
func (img *Image) page(i int) ([]byte, error) {
	if img.pages[i] != nil {
		return img.pages[i], nil
	}
	if img.slot[i] >= 0 {
		p, err := img.store.take(img.slot[i])
		if err != nil {
			return nil, err
		}
		img.slot[i] = -1
		img.pages[i] = p
		return p, nil
	}
	// Zero page: allocate on first touch.
	p := make([]byte, PageSize)
	img.pages[i] = p
	return p, nil
}

// ReadAt copies len(b) bytes starting at off into b, swapping pages in as
// needed.
func (img *Image) ReadAt(b []byte, off int) error {
	if err := img.check(off, len(b)); err != nil {
		return err
	}
	for n := 0; n < len(b); {
		pi := (off + n) / PageSize
		po := (off + n) % PageSize
		p, err := img.page(pi)
		if err != nil {
			return err
		}
		n += copy(b[n:], p[po:])
	}
	return nil
}

// WriteAt copies b into the image starting at off.
func (img *Image) WriteAt(b []byte, off int) error {
	if err := img.check(off, len(b)); err != nil {
		return err
	}
	for n := 0; n < len(b); {
		pi := (off + n) / PageSize
		po := (off + n) % PageSize
		p, err := img.page(pi)
		if err != nil {
			return err
		}
		n += copy(p[po:], b[n:])
	}
	return nil
}

// SwapOut moves page i to the store, freeing its frame.
func (img *Image) SwapOut(i int) error {
	if i < 0 || i >= len(img.pages) {
		return fmt.Errorf("memory: no page %d", i)
	}
	if img.pages[i] == nil {
		return nil // already swapped or never touched
	}
	if img.store == nil {
		return fmt.Errorf("memory: image has no swap store")
	}
	slot, err := img.store.put(img.pages[i])
	if err != nil {
		return err
	}
	img.slot[i] = slot
	img.pages[i] = nil
	return nil
}

// Bytes returns a full copy of the image contents (swapping everything in),
// used by the migration program transfer.
func (img *Image) Bytes() ([]byte, error) {
	b := make([]byte, img.size)
	if err := img.ReadAt(b, 0); err != nil {
		return nil, err
	}
	return b, nil
}

// Discard releases any swap slots held by the image. Called when the source
// kernel reclaims a migrated process (§3.1 step 7: "space for memory and
// tables is reclaimed").
func (img *Image) Discard() {
	for i := range img.slot {
		if img.slot[i] >= 0 {
			img.store.take(img.slot[i]) //nolint:errcheck // freeing
			img.slot[i] = -1
		}
		img.pages[i] = nil
	}
}
