//! Figure 4: the chained-hash indexing structure — demonstrates the
//! m/4 → m index-array expansion on the first unaligned (byte) access.

use dgrace_shadow::accounting::hash_entry_bytes;
use dgrace_shadow::{ShadowStore, ShadowTable};
use dgrace_trace::Addr;

fn main() {
    println!("Figure 4 — indexing structure growth (m = 128)\n");
    let mut table: ShadowTable<u32> = ShadowTable::default();

    println!("word-aligned inserts into one 128-byte chunk:");
    for i in 0..4u64 {
        table.insert(Addr(0x1000 + i * 4), i as u32);
        println!(
            "  insert 0x{:x}: entries use {} B (expect {} B = header + 32 ptrs)",
            0x1000 + i * 4,
            table.index_bytes(),
            hash_entry_bytes(32)
        );
    }

    println!("\nfirst unaligned (byte) access 0x1003:");
    table.insert(Addr(0x1003), 99);
    println!(
        "  entry expanded to {} B (expect {} B = header + 128 ptrs)",
        table.index_bytes(),
        hash_entry_bytes(128)
    );
    println!("  existing cells preserved:");
    for i in 0..4u64 {
        println!(
            "    0x{:x} -> {:?}",
            0x1000 + i * 4,
            table.get(Addr(0x1000 + i * 4))
        );
    }
    println!("    0x1003 -> {:?}", table.get(Addr(0x1003)));

    println!("\na second chunk stays in word mode:");
    table.insert(Addr(0x2000), 7);
    println!(
        "  total {} B (expect {} B)",
        table.index_bytes(),
        hash_entry_bytes(128) + hash_entry_bytes(32)
    );

    println!("\nupper bits select the chunk entry; lower log2(m) bits index the array,");
    println!("exactly as in the paper's Fig. 4 (shown there for m = 128).");
}
