//! The symbolic query language and its translation to transactions.
//!
//! "By a query we mean a symbolic description of a transaction which, for a
//! given database, will produce a response and a new database. Thus, we
//! assume a function `translate : queries -> transactions` … Here is where a
//! language capability for 'higher-order' (or function-producing) functions
//! is very useful." (Section 2.1.)
//!
//! The pipeline is exactly the paper's:
//!
//! 1. a textual query (`"insert (1, 'ada') into R"`) is [`parse`]d into a
//!    [`Query`] AST;
//! 2. [`translate()`] turns the AST into a [`Transaction`] — a pure function
//!    `Database -> (Response, Database)` packaged with its syntactically
//!    derived read/write sets ("usually the specific relations are
//!    syntactically derivable from the query");
//! 3. the engine (in `fundb-core`) maps `translate` over whole query
//!    streams with the apply-to-all operator.
//!
//! # Grammar
//!
//! ```text
//! query   := insert | find | delete | replace | select | create | count
//!          | agg | join | explain | names
//! insert  := "insert" tuple "into" NAME
//! find    := "find" value [ "to" value ] "in" NAME
//! delete  := "delete" value "from" NAME
//! replace := "replace" tuple "in" NAME
//! select  := "select" [ field { "," field } ] "from" NAME [ "where" pred ]
//! create  := "create" "relation" NAME [ "(" NAME { "," NAME } ")" ] [ "as" repr ]
//!          | "create" "index" NAME "on" NAME "(" field { "," field } ")"
//!          | "create" "view" NAME "as" vspec
//! vspec   := "select" "from" NAME [ "where" pred ]
//!          | "join" NAME "with" NAME "on" field "=" field
//!          | "count" NAME "by" field
//!          | "sum" field "of" NAME "by" field
//! count   := "count" NAME
//! agg     := ( "sum" | "min" | "max" ) field "of" NAME
//! join    := "join" NAME "with" NAME [ "on" field "=" field ]
//! explain := "explain" query
//! names   := "relations"
//! tuple   := value | "(" value { "," value } ")"
//! value   := INT | STRING | "true" | "false"
//! pred    := conj { "or" conj }
//! conj    := atom { "and" atom }
//! atom    := field ( "=" | "<" | ">" | "!=" ) value | "(" pred ")"
//! field   := "#" INT | NAME          (names need a relation schema)
//! repr    := "list" | "tree" | "btree" "(" INT ")"
//!                                    ("tree" is "btree(16)")
//! ```
//!
//! # Example
//!
//! ```
//! use fundb_query::{parse, translate};
//! use fundb_relational::{Database, Repr};
//!
//! let db = Database::empty().create_relation("R", Repr::List)?;
//! let tx = translate(parse("insert (1, 'ada') into R")?);
//! let (response, db) = tx.apply(&db);
//! assert_eq!(response.to_string(), "inserted (1, 'ada') into R");
//! let tx = translate(parse("find 1 in R")?);
//! let (response, _db) = tx.apply(&db);
//! assert_eq!(response.to_string(), "found 1 tuple: (1, 'ada')");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod error;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod response;
pub mod token;
pub mod translate;

pub use ast::{
    apply_select, compute_aggregate, AggOp, FieldRef, Predicate, Query, ReprSpec, ViewSpec,
};
pub use error::ParseError;
pub use parser::parse;
pub use plan::{
    choose_access_path, choose_access_path_with_estimate, choose_join_strategy, execute_join,
    execute_join_explained, execute_select, execute_select_explained, explain_select, AccessPath,
    JoinStrategy,
};
pub use response::Response;
pub use translate::{translate, Transaction};
