//! Quickstart: define a small API, ask Prospector how to get from one
//! type to another, and print insertable code.
//!
//! Run with `cargo run --example quickstart`.

use prospector_repro::apidef::ApiLoader;
use prospector_repro::core::Prospector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe an API. Normally this comes from `.api` stub files; the
    //    format mirrors Java declarations.
    let mut loader = ApiLoader::with_prelude();
    loader.add_source(
        "io.api",
        r"
        package java.io;
        public class InputStream {}
        public class Reader {}
        public class InputStreamReader extends Reader {
            InputStreamReader(InputStream in);
        }
        public class BufferedReader extends Reader {
            BufferedReader(Reader in);
            String readLine();
        }
        ",
    )?;
    let api = loader.finish()?;

    // 2. Build the engine (signature graph, §3.1).
    let tin = api.types().resolve("InputStream")?;
    let tout = api.types().resolve("BufferedReader")?;
    let prospector = Prospector::new(api);

    // 3. Ask: "I have an InputStream, I need a BufferedReader."
    let result = prospector.query(tin, tout)?;
    println!("how do I turn an InputStream into a BufferedReader?");
    for (i, s) in result.suggestions.iter().enumerate() {
        println!("  {}. {}", i + 1, s.code);
    }

    // 4. The top suggestion is the classic idiom, ready to insert.
    let top = &result.suggestions[0];
    assert_eq!(top.code, "new BufferedReader(new InputStreamReader(inputStream))");
    let api = prospector.api();
    println!("\ninsertable block:\n{}", top.snippet(api).render_block(api, "reader"));
    Ok(())
}
