use urbmark::alloc::Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    std::process::exit(urbmark::cli::main());
}
