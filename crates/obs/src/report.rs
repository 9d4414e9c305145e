//! Standard output for a command whose reader may leave before the
//! report ends (`harness | head -1`).
//!
//! `println!` panics on a failed write, and Rust ignores `SIGPIPE`, so
//! a closed pipe turns into `failed printing to stdout: Broken pipe`, a
//! backtrace and exit status 101. A reader that has what it wanted is
//! no failure: [`outln!`](crate::outln) ends the process quietly, with
//! status 0, on that one error.

use std::fmt;
use std::io::{self, Write};

/// Writes `line` and a newline to standard output; the body of
/// [`outln!`](crate::outln).
///
/// # Panics
///
/// On any write error but a broken pipe, as `println!` does.
pub fn print_line(line: fmt::Arguments<'_>) {
    if let Err(e) = writeln!(io::stdout().lock(), "{line}") {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `println!` that exits quietly once nobody reads standard output any
/// more.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::print_line(::std::format_args!($($arg)*))
    };
}
