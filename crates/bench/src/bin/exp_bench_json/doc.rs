//! The one document helper every `BENCH_*.json` file goes through.
//!
//! A dimension builds its file once, declaring each field as one of two
//! kinds: **pinned** (deterministic — result shapes, counts — and compared
//! by `--check`) or **informational** (timings and machine shape; written,
//! never compared). [`Doc::emit`] then either writes the document in the
//! committed layout, or reads the committed file back and checks it: the
//! same key paths in the same layout, and the same value at every pinned
//! one.

use std::fmt::Display;

/// One JSON object under construction. A `block` object puts each field
/// on its own line; an `inline` one writes them all on one line.
#[derive(Default)]
pub struct Obj {
    inline: bool,
    fields: Vec<(&'static str, Node)>,
}

enum Node {
    /// A value's text, and whether it is pinned.
    Leaf(String, bool),
    Obj(Obj),
    /// A list of objects, one per line.
    List(Vec<Obj>),
}

impl Obj {
    pub fn block() -> Self {
        Obj::default()
    }

    pub fn inline() -> Self {
        let inline = true;
        Obj {
            inline,
            ..Obj::default()
        }
    }

    /// A pinned field: deterministic, so `--check` compares it.
    pub fn pin(self, key: &'static str, value: impl Display) -> Self {
        self.field(key, Node::Leaf(value.to_string(), true))
    }

    /// An informational field: written, never compared.
    pub fn info(self, key: &'static str, value: impl Display) -> Self {
        self.field(key, Node::Leaf(value.to_string(), false))
    }

    /// An informational number written with `decimals` places.
    pub fn float(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.info(key, format_args!("{value:.decimals$}"))
    }

    pub fn obj(self, key: &'static str, obj: Obj) -> Self {
        self.field(key, Node::Obj(obj))
    }

    pub fn list(self, key: &'static str, items: Vec<Obj>) -> Self {
        self.field(key, Node::List(items))
    }

    fn field(mut self, key: &'static str, node: Node) -> Self {
        self.fields.push((key, node));
        self
    }

    /// Lay this object out at `depth`, its leaves under key path `path`.
    fn render(self, out: &mut Vec<Piece>, path: &str, depth: usize) {
        let (open, sep, pad, close) = if self.inline {
            ("{ ", ", ", String::new(), " }".to_string())
        } else {
            (
                "{\n",
                ",\n",
                indent(depth + 1),
                format!("\n{}}}", indent(depth)),
            )
        };
        out.push(Piece::Text(open.into()));
        for (i, (key, node)) in self.fields.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { sep };
            out.push(Piece::Text(format!("{sep}{pad}\"{key}\": ")));
            let path = if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}.{key}")
            };
            match node {
                Node::Leaf(text, pinned) => out.push(Piece::Leaf { path, text, pinned }),
                Node::Obj(obj) => obj.render(out, &path, depth + 1),
                Node::List(items) => {
                    out.push(Piece::Text("[\n".into()));
                    for (j, item) in items.into_iter().enumerate() {
                        let sep = if j == 0 { "" } else { ",\n" };
                        out.push(Piece::Text(format!("{sep}{}", indent(depth + 2))));
                        item.render(out, &format!("{path}[{j}]"), depth + 2);
                    }
                    out.push(Piece::Text(format!("\n{}]", indent(depth + 1))));
                }
            }
        }
        out.push(Piece::Text(close));
    }
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

/// A laid-out document is layout text between leaf values.
enum Piece {
    Text(String),
    Leaf {
        path: String,
        text: String,
        pinned: bool,
    },
}

/// `(key path, this run's text, pinned)` of every leaf, in order.
fn leaves(pieces: &[Piece]) -> impl Iterator<Item = (&str, &str, bool)> {
    pieces.iter().filter_map(|p| match p {
        Piece::Leaf { path, text, pinned } => Some((path.as_str(), text.as_str(), *pinned)),
        Piece::Text(_) => None,
    })
}

/// One BENCH file: `BENCH_<bench>.json`, a block object whose first field
/// names the bench.
pub struct Doc {
    file: String,
    pieces: Vec<Piece>,
}

impl Doc {
    pub fn new(bench: &str, fields: Obj) -> Self {
        let mut root = Obj::block().info("bench", format_args!("\"{bench}\""));
        root.fields.extend(fields.fields);
        let mut pieces = Vec::new();
        root.render(&mut pieces, "", 0);
        pieces.push(Piece::Text("\n".into()));
        Doc {
            file: format!("BENCH_{bench}.json"),
            pieces,
        }
    }

    pub fn render(&self) -> String {
        self.pieces
            .iter()
            .map(|p| match p {
                Piece::Text(text) | Piece::Leaf { text, .. } => text.as_str(),
            })
            .collect()
    }

    /// Write mode: write the file and echo it to stdout. Check mode:
    /// [`Self::check`] the committed file. Returns how many pinned fields
    /// were compared.
    pub fn emit(&self, check: bool) -> Result<usize, String> {
        if check {
            return self.check(&self.read()?);
        }
        let out = self.render();
        std::fs::write(&self.file, &out).map_err(|e| format!("write {}: {e}", self.file))?;
        print!("{out}");
        Ok(0)
    }

    /// Compare `committed` with this run: every pinned value must match.
    /// Returns how many were compared.
    pub fn check(&self, committed: &str) -> Result<usize, String> {
        let mut pinned = 0;
        for ((path, ours, pin), theirs) in leaves(&self.pieces).zip(self.walk(committed)?) {
            if pin && ours != theirs {
                return Err(format!(
                    "{}: {path} is {theirs} in the committed file, but this run measured {ours}",
                    self.file
                ));
            }
            pinned += usize::from(pin);
        }
        Ok(pinned)
    }

    /// The committed file's number at key path `path`.
    pub fn committed_number(&self, path: &str) -> Result<f64, String> {
        let committed = self.read()?;
        leaves(&self.pieces)
            .zip(self.walk(&committed)?)
            .find(|((key, ..), _)| *key == path)
            .and_then(|(_, text)| text.parse().ok())
            .ok_or_else(|| format!("{} has no number at {path}", self.file))
    }

    fn read(&self) -> Result<String, String> {
        std::fs::read_to_string(&self.file).map_err(|e| format!("read {}: {e}", self.file))
    }

    /// Follow this run's layout through `committed`: all text between the
    /// values, and so every key path, must match exactly. Returns the
    /// committed text of every leaf, in order.
    fn walk<'c>(&self, committed: &'c str) -> Result<Vec<&'c str>, String> {
        let mut rest = committed;
        let mut values = Vec::new();
        for (i, piece) in self.pieces.iter().enumerate() {
            if let Piece::Text(text) = piece {
                rest = rest.strip_prefix(text.as_str()).ok_or_else(|| {
                    let next = leaves(&self.pieces[i..]).next();
                    let at = next.map_or("the end of the file", |(path, ..)| path);
                    format!("{}: key paths differ from this run's at {at}", self.file)
                })?;
            } else {
                let end = rest.find([',', ' ', '\n']).unwrap_or(rest.len());
                values.push(&rest[..end]);
                rest = &rest[end..];
            }
        }
        if !rest.is_empty() {
            return Err(format!("{}: trailing text after the document", self.file));
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Doc {
        Doc::new(
            "sample",
            Obj::block()
                .obj("corpus", Obj::inline().info("posts", 4000).info("seed", 7))
                .obj(
                    "run",
                    Obj::block()
                        .float("p50_us", 4.2, 2)
                        .pin("total_hits", 15480)
                        .obj("inner", Obj::block().pin("count", 3)),
                )
                .list(
                    "shards",
                    vec![
                        Obj::inline().pin("shards", 1).float("skip_rate", 0.08, 2),
                        Obj::inline().pin("shards", 2).float("skip_rate", 0.54, 2),
                    ],
                )
                .float("ratio", 388.16, 1),
        )
    }

    #[test]
    fn renders_the_committed_layout() {
        assert_eq!(
            sample().render(),
            r#"{
  "bench": "sample",
  "corpus": { "posts": 4000, "seed": 7 },
  "run": {
    "p50_us": 4.20,
    "total_hits": 15480,
    "inner": {
      "count": 3
    }
  },
  "shards": [
    { "shards": 1, "skip_rate": 0.08 },
    { "shards": 2, "skip_rate": 0.54 }
  ],
  "ratio": 388.2
}
"#
        );
    }

    #[test]
    fn a_document_checks_against_its_own_rendering() {
        let doc = sample();
        assert_eq!(doc.check(&doc.render()), Ok(4));
    }

    #[test]
    fn a_changed_pinned_integer_fails_naming_file_path_and_both_values() {
        let doc = sample();
        let edited = doc
            .render()
            .replace("\"total_hits\": 15480", "\"total_hits\": 154801");
        let err = doc.check(&edited).unwrap_err();
        assert_eq!(
            err,
            "BENCH_sample.json: run.total_hits is 154801 in the committed file, \
             but this run measured 15480"
        );
        let edited = doc.render().replace("{ \"shards\": 2,", "{ \"shards\": 3,");
        let err = doc.check(&edited).unwrap_err();
        assert!(err.contains("shards[1].shards is 3"), "{err}");
    }

    #[test]
    fn a_removed_pinned_key_fails() {
        let doc = sample();
        let edited = doc.render().replace(",\n    \"total_hits\": 15480", "");
        let err = doc.check(&edited).unwrap_err();
        assert_eq!(
            err,
            "BENCH_sample.json: key paths differ from this run's at run.total_hits"
        );
        // A dropped list entry is a key-path change too.
        let edited = doc
            .render()
            .replace(",\n    { \"shards\": 2, \"skip_rate\": 0.54 }", "");
        let err = doc.check(&edited).unwrap_err();
        assert!(err.ends_with("at shards[1].shards"), "{err}");
    }

    #[test]
    fn a_changed_informational_number_passes() {
        let doc = sample();
        let edited = doc
            .render()
            .replace("4.20", "-19.99")
            .replace("0.54", "0.5")
            .replace("\"posts\": 4000", "\"posts\": 12");
        assert_eq!(doc.check(&edited), Ok(4));
    }

    #[test]
    fn malformed_files_are_refused() {
        let doc = sample();
        let text = doc.render();
        assert!(doc.check(&text[..text.len() - 3]).is_err());
        assert!(doc.check(&format!("{text}}}")).is_err());
        assert!(doc.check("").is_err());
    }
}
