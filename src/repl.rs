//! The interactive session logic behind the `fundb` REPL binary.
//!
//! A session wraps a [`VersionArchive`](fundb_core::VersionArchive): every
//! query creates a new archived
//! version, and meta-commands (lines starting with `:`) expose the
//! functional-database superpowers — time travel, per-key history, and
//! physical-sharing-based change detection.

use fundb_core::VersionArchive;
use fundb_query::{parse, translate};
use fundb_relational::{Database, Value};

/// An interactive database session.
///
/// # Example
///
/// ```
/// use fundb::repl::Session;
///
/// let mut s = Session::new();
/// s.handle_line("create relation R");
/// s.handle_line("insert (1, 'ada') into R");
/// let out = s.handle_line("find 1 in R");
/// assert!(out.contains("ada"));
/// let out = s.handle_line(":at 1 count R");
/// assert!(out.contains("count 0"));
/// ```
pub struct Session {
    archive: VersionArchive,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Session[{} versions]", self.archive.version_count())
    }
}

/// Help text printed by `:help`.
pub const HELP: &str = "\
queries:
  create relation <R>[(attrs)] [as list|tree|btree(N)]
  insert <tuple> into <R>          e.g. insert (1, 'ada') into Emp
  find <key> in <R>                find <lo> to <hi> in <R>
  delete <key> from <R>            replace <tuple> in <R>
  select [fields] from <R> [where <pred>]
                                   e.g. select name from Emp where dept = 'eng'
  join <R> with <S>                natural join on tuple keys
  sum|min|max <field> of <R>       aggregates
  count <R>                        relations
meta-commands:
  :help                 this text
  :version              current version number
  :history              the query log (one line per version)
  :at <v> <query>       run a read-only query against version <v>
  :changed <i> <j>      relations physically changed between two versions
  :key <R> <key>        tuple count of <key> in <R> across all versions
  :truncate <v>         drop versions before <v>
  :quit                 exit";

impl Session {
    /// A session over an empty database.
    pub fn new() -> Self {
        Session {
            archive: VersionArchive::new(Database::empty()),
        }
    }

    /// A session starting from an existing database.
    pub fn with_database(db: Database) -> Self {
        Session {
            archive: VersionArchive::new(db),
        }
    }

    /// The underlying archive (for inspection in tests and tools).
    pub fn archive(&self) -> &VersionArchive {
        &self.archive
    }

    /// Processes one input line and returns the text to display.
    /// Empty/whitespace lines return an empty string. `:quit` returns the
    /// marker the binary watches for.
    pub fn handle_line(&mut self, line: &str) -> String {
        let line = line.trim();
        if line.is_empty() {
            return String::new();
        }
        if let Some(meta) = line.strip_prefix(':') {
            return self.handle_meta(meta);
        }
        match parse(line) {
            Ok(q) => {
                let response = self.archive.apply(&translate(q));
                format!("v{}: {response}", self.archive.head_version())
            }
            Err(e) => format!("{e}"),
        }
    }

    fn handle_meta(&mut self, meta: &str) -> String {
        let mut words = meta.split_whitespace();
        match words.next() {
            Some("help") => HELP.to_string(),
            Some("quit") | Some("exit") => ":quit".to_string(),
            Some("version") => format!("v{}", self.archive.head_version()),
            Some("history") => {
                let mut out = String::new();
                for v in self.archive.oldest_version() + 1..=self.archive.head_version() {
                    let (q, r) = self.archive.log_entry(v).expect("version in range");
                    out.push_str(&format!("v{v}: {q}  =>  {r}\n"));
                }
                if out.is_empty() {
                    out.push_str("(no transactions yet)\n");
                }
                out.pop();
                out
            }
            Some("at") => {
                let Some(v) = words.next().and_then(|w| w.parse::<usize>().ok()) else {
                    return "usage: :at <version> <query>".to_string();
                };
                let rest: String = words.collect::<Vec<_>>().join(" ");
                match parse(&rest) {
                    Err(e) => format!("{e}"),
                    Ok(q) if !q.is_read_only() => {
                        "time-travel queries must be read-only".to_string()
                    }
                    Ok(q) => match self.archive.query_at(v, &translate(q)) {
                        Some(r) => format!("v{v}: {r}"),
                        None => format!("no such version: {v}"),
                    },
                }
            }
            Some("changed") => {
                let (Some(i), Some(j)) = (
                    words.next().and_then(|w| w.parse::<usize>().ok()),
                    words.next().and_then(|w| w.parse::<usize>().ok()),
                ) else {
                    return "usage: :changed <i> <j>".to_string();
                };
                match self.archive.changed_relations(i, j) {
                    None => "no such version".to_string(),
                    Some(changed) if changed.is_empty() => {
                        format!("v{i} and v{j} are physically identical")
                    }
                    Some(changed) => {
                        let names: Vec<String> = changed.iter().map(|n| n.to_string()).collect();
                        format!("changed between v{i} and v{j}: {}", names.join(", "))
                    }
                }
            }
            Some("key") => {
                let (Some(rel), Some(key)) = (words.next(), words.next()) else {
                    return "usage: :key <relation> <key>".to_string();
                };
                let key: Value = match key.parse::<i64>() {
                    Ok(i) => i.into(),
                    Err(_) => key.trim_matches('\'').into(),
                };
                let history = self.archive.history_of(&rel.into(), &key);
                format!("{key} in {rel} per version: {history:?}")
            }
            Some("truncate") => {
                let Some(v) = words.next().and_then(|w| w.parse::<usize>().ok()) else {
                    return "usage: :truncate <version>".to_string();
                };
                self.archive.truncate_before(v);
                format!(
                    "retained {} versions; head is still v{}",
                    self.archive.version_count(),
                    self.archive.head_version()
                )
            }
            _ => format!("unknown meta-command ':{meta}' (try :help)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session_with(lines: &[&str]) -> Session {
        let mut s = Session::new();
        for l in lines {
            s.handle_line(l);
        }
        s
    }

    #[test]
    fn basic_query_flow() {
        let mut s = Session::new();
        assert!(s.handle_line("create relation R").contains("created"));
        assert!(s.handle_line("insert (1, 'x') into R").contains("inserted"));
        assert!(s.handle_line("find 1 in R").contains("found 1 tuple"));
        assert!(s.handle_line("count R").contains("count 1"));
    }

    #[test]
    fn empty_and_whitespace_lines() {
        let mut s = Session::new();
        assert_eq!(s.handle_line(""), "");
        assert_eq!(s.handle_line("   "), "");
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let mut s = Session::new();
        let out = s.handle_line("fetch everything please");
        assert!(out.contains("parse error"), "{out}");
        assert!(s.handle_line("create relation R").contains("created"));
    }

    #[test]
    fn version_and_history() {
        let mut s = session_with(&["create relation R", "insert 1 into R"]);
        assert_eq!(s.handle_line(":version"), "v2");
        let h = s.handle_line(":history");
        assert!(h.contains("v1: create relation R"), "{h}");
        assert!(h.contains("v2: insert (1) into R"), "{h}");
        assert!(Session::new()
            .handle_line(":history")
            .contains("no transactions"));
    }

    #[test]
    fn time_travel_meta() {
        let mut s = session_with(&["create relation R", "insert 1 into R", "delete 1 from R"]);
        assert!(s.handle_line(":at 2 count R").contains("count 1"));
        assert!(s.handle_line(":at 3 count R").contains("count 0"));
        assert!(s.handle_line(":at 99 count R").contains("no such version"));
        assert!(s.handle_line(":at 1 insert 2 into R").contains("read-only"));
        assert!(s.handle_line(":at x count R").contains("usage"));
    }

    #[test]
    fn changed_meta() {
        let mut s = session_with(&[
            "create relation R",
            "create relation S",
            "insert 1 into R",
            "count S",
        ]);
        assert!(s
            .handle_line(":changed 2 3")
            .contains("changed between v2 and v3: R"));
        assert!(s
            .handle_line(":changed 3 4")
            .contains("physically identical"));
        assert!(s.handle_line(":changed 0 99").contains("no such version"));
        assert!(s.handle_line(":changed 0").contains("usage"));
    }

    #[test]
    fn key_history_meta() {
        let mut s = session_with(&["create relation R", "insert 5 into R", "delete 5 from R"]);
        let out = s.handle_line(":key R 5");
        assert!(out.contains("[0, 0, 1, 0]"), "{out}");
    }

    #[test]
    fn truncate_meta() {
        let mut s = session_with(&["create relation R", "insert 1 into R", "insert 2 into R"]);
        let out = s.handle_line(":truncate 2");
        assert!(out.contains("retained 2 versions"), "{out}");
        assert!(s.handle_line(":truncate x").contains("usage"));
    }

    #[test]
    fn quit_and_help_and_unknown() {
        let mut s = Session::new();
        assert_eq!(s.handle_line(":quit"), ":quit");
        assert_eq!(s.handle_line(":exit"), ":quit");
        assert!(s.handle_line(":help").contains("meta-commands"));
        assert!(s
            .handle_line(":frobnicate")
            .contains("unknown meta-command"));
    }

    #[test]
    fn schemas_through_repl() {
        let mut s = session_with(&[
            "create relation Emp(id, name, dept)",
            "insert (1, 'ada', 'eng') into Emp",
            "insert (2, 'bob', 'ops') into Emp",
        ]);
        let out = s.handle_line("select name from Emp where dept = 'eng'");
        assert!(out.contains("'ada'"), "{out}");
        assert!(!out.contains("'bob'"), "{out}");
        let out = s.handle_line("select from Emp where salary = 1");
        assert!(out.contains("salary"), "{out}");
    }

    #[test]
    fn aggregates_through_repl() {
        let mut s = session_with(&[
            "create relation Sales(id, qty)",
            "insert (1, 10) into Sales",
            "insert (2, 32) into Sales",
        ]);
        assert!(s.handle_line("sum qty of Sales").contains("sum = 42"));
        assert!(s.handle_line("max #0 of Sales").contains("max = 2"));
    }

    #[test]
    fn joins_through_repl() {
        let mut s = session_with(&[
            "create relation R",
            "create relation S",
            "insert (1, 'a') into R",
            "insert (1, 'b') into S",
        ]);
        let out = s.handle_line("join R with S");
        assert!(out.contains("found 1 tuple"), "{out}");
    }

    #[test]
    fn range_queries_through_repl() {
        let mut s = session_with(&[
            "create relation R as tree",
            "insert 1 into R",
            "insert 5 into R",
            "insert 9 into R",
        ]);
        let out = s.handle_line("find 2 to 8 in R");
        assert!(out.contains("found 1 tuple"), "{out}");
    }
}
